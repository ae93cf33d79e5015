"""The sampled futures' noise, drawn and integrated by the compiled kernel.

prediction.sample_predictions draws each future in one kernel call,
navrisk_sample_future in navrisk/_growth.c: numpy's SeedSequence and
PCG64 seed the actor's stream, numpy's ziggurat (random_standard_normal,
with numpy's tables) draws Generator.normal's values, and the linear
model integrates them with the expressions of the Python loop it
replaced.  Each must equal numpy bit for bit:

* the kernel's draws (navrisk_normal, the draw on its own) equal
  Generator.normal on streams seeded from random.Random-drawn entropies
  and spawn keys, among them the word-boundary keys, and the draws take
  the ziggurat's tail and wedge paths often enough to test them, as a
  Python walk of numpy's algorithm over the raw stream counts them;
* sample_predictions equals oracles.reference_sample_predictions (numpy's
  draws, a Python float loop) on drawn histories, errors included;
* risk.mean_and_variance, the kernel's pairwise sum, equals np.mean and
  np.var(ddof=1);
* the tables written into _growth.c equal the ones in the installed
  numpy's static library, read with a small ar and ELF64 reader.
"""

import math
import random
import re
import struct
from array import array
from pathlib import Path

import numpy as np
import pytest

from navrisk._kernel import SOURCE, address, seed_words
from navrisk.prediction import (
    PredictionConfig, _actor_key, sample_predictions)
from navrisk.risk import mean_and_variance
from navrisk.scenario import MAX_MAGNITUDE, ActorState

from kernel_calls import parts
from oracles import (
    reference_mean_and_variance, reference_sample_predictions,
    state_trajectory)

EDGE_KEYS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
SIGMAS = (0.0, 1e-3, 0.3, 1.0, 2.5)
NOR_R = 3.6541528853610087963519472518   # numpy's tail bound
NOR_INV_R = 0.27366123732975827203338247596


def c_table(name: str) -> list:
    """The 256 entries of the table name as written in _growth.c."""
    m = re.search(r"\b%s\[256\] = \{([^}]*)\}" % name,
                  Path(SOURCE).read_text())
    items = [w.strip() for w in m.group(1).split(",")]
    if items[0].endswith("ull"):
        return [int(w[:-3], 16) for w in items]
    return [float.fromhex(w) for w in items]


KI, WI, FI = c_table("ki_double"), c_table("wi_double"), c_table("fi_double")


def kernel_normal(seed: int, spawn_key: tuple, sigma: float,
                  n: int) -> array:
    """navrisk_normal's n draws of normal(0.0, sigma) from the stream of
    SeedSequence(seed, spawn_key)."""
    run, spawn = seed_words(seed), seed_words(*spawn_key)
    out = array("d", bytes(8 * n))
    assert parts().navrisk_normal(run, len(run), spawn, len(spawn), sigma,
                                  n, address(out)) == 0
    return out


def ziggurat_walk(words, n: int) -> tuple[list, dict]:
    """numpy's random_standard_normal written out in Python over the
    iterator words of a stream's raw uint64s: the first n draws, and how
    many of them each path returned ("strip", "tail", "wedge")."""
    def unit() -> float:
        return (next(words) >> 11) * (1.0 / 9007199254740992.0)

    draws, paths = [], dict.fromkeys(("strip", "tail", "wedge"), 0)
    while len(draws) < n:
        r = next(words)
        idx = r & 0xff
        r >>= 8
        rabs = (r >> 1) & 0x000fffffffffffff
        x = -(rabs * WI[idx]) if r & 1 else rabs * WI[idx]
        if rabs < KI[idx]:
            path = "strip"
        elif idx == 0:
            while True:
                xx = -NOR_INV_R * math.log1p(-unit())
                yy = -math.log1p(-unit())
                if yy + yy > xx * xx:
                    break
            x = -(NOR_R + xx) if (rabs >> 8) & 1 else NOR_R + xx
            path = "tail"
        elif (FI[idx - 1] - FI[idx]) * unit() + FI[idx] < \
                math.exp(-0.5 * x * x):
            path = "wedge"
        else:
            continue
        draws.append(x)
        paths[path] += 1
    return draws, paths


def draw_key(rng: random.Random) -> int:
    if rng.random() < 0.3:
        return rng.choice(EDGE_KEYS)
    return rng.getrandbits(rng.choice((8, 32, 33, 63, 64)))


def test_kernel_draws_equal_numpy_normal():
    rng = random.Random(29)
    total, edge = 0, 0
    paths = dict.fromkeys(("strip", "tail", "wedge"), 0)
    for case in range(260):
        seed = rng.choice(EDGE_KEYS) if case % 5 == 0 else \
            rng.getrandbits(64)
        spawn_key = (draw_key(rng), draw_key(rng), draw_key(rng))
        sigma = SIGMAS[case % len(SIGMAS)]
        n = rng.randint(1500, 2500)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
        want = np.random.default_rng(ss).normal(0.0, sigma, size=n)
        got = kernel_normal(seed, spawn_key, sigma, n)
        # bit for bit, the sign of a zero included
        assert got.tobytes() == want.tobytes(), (seed, spawn_key, sigma)
        words = iter(np.random.PCG64(ss).random_raw(2 * n + 64).tolist())
        z, walked = ziggurat_walk(words, n)
        assert array("d", z).tobytes() == np.random.default_rng(
            ss).standard_normal(n).tobytes()
        for path, count in walked.items():
            paths[path] += count
        total += n
        edge += any(w in EDGE_KEYS for w in (seed, *spawn_key))
    assert total >= 500_000 and edge >= 100, (total, edge)
    assert paths["tail"] >= 50 and paths["wedge"] >= 50, paths


def test_actor_key_is_hashlib_blake2s():
    import _blake2
    import hashlib
    assert hashlib.blake2s is _blake2.blake2s
    for aid in ("a", "cutin", "lead", "ego", "élève", ""):
        digest = hashlib.blake2s(aid.encode(), digest_size=8).digest()
        assert _actor_key(aid) == int.from_bytes(digest, "little")


def exact(trajs) -> list:
    """Every float of every state, as its hex: bit for bit."""
    return [[(s.position_x.hex(), s.position_y.hex(), s.heading.hex(),
              s.speed.hex()) for s in tr.states] for tr in trajs]


def outcome(fn, history, k, cfg):
    try:
        return exact(fn(history, k, cfg))
    except ValueError as e:
        return str(e)


def history_cases(count):
    """(history, k, cfg): one-state histories anywhere on a wide plane,
    heading anywhere in (-pi, pi] and sometimes at pi, speeds from 0,
    sigmas from tiny to past the document bound, one sometimes 0."""
    rng = random.Random(2029)
    for i in range(count):
        heading = math.pi if rng.random() < 0.1 else \
            rng.uniform(-math.pi, math.pi)
        speed = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 30.0)
        state = ActorState(rng.uniform(-1e4, 1e4), rng.uniform(-50.0, 50.0),
                           heading, speed)
        history = state_trajectory(f"actor{i}", rng.getrandbits(
            rng.choice((4, 12, 40, 70))), rng.choice((0.05, 0.1, 0.5)),
            (state,))
        accel = rng.choice((0.0, 0.3, 2.0, 8.0, 50.0, 1e160, 1e308))
        yaw = rng.choice((0.0, 0.02, 0.5, 3.0, 40.0))
        if accel == yaw == 0.0:
            yaw = 0.5
        # a seed has at most 64 bits (test_seed_beyond_64_bits_refused)
        cfg = PredictionConfig(accel, yaw, rng.randint(1, 4),
                               rng.getrandbits(rng.choice((8, 32, 64))))
        yield history, rng.randint(1, 80), cfg


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 80 + 5])
def test_seed_beyond_64_bits_refused(seed):
    # masked to 64 bits, seeds 2**64 and 0 drew the same futures, and so
    # did -1 and 2**64 - 1
    with pytest.raises(ValueError, match="^seed must be"):
        PredictionConfig(0.3, 0.0, 1, seed)


def test_sample_predictions_equal_the_numpy_loop():
    seen = dict.fromkeys(("zero sigma", "clamped", "wrapped", "beyond 1e150",
                          "sigma 1e308"), 0)
    for history, k, cfg in history_cases(400):
        got = outcome(sample_predictions, history, k, cfg)
        assert got == outcome(reference_sample_predictions, history, k,
                              cfg), (history, k, cfg)
        if isinstance(got, str):
            # finite draws that carry it past the bound, or draws past the
            # float range
            seen["sigma 1e308" if cfg.noise_accel_sigma == 1e308 else
                 "beyond 1e150"] += 1
            continue
        seen["zero sigma"] += 0.0 in (cfg.noise_accel_sigma,
                                      cfg.noise_yawrate_sigma)
        seen["clamped"] += any(float.fromhex(row[3]) == 0.0
                               for tr in got for row in tr[1:])
        seen["wrapped"] += any(
            abs(float.fromhex(a[2]) - float.fromhex(b[2])) > math.pi
            for tr in got for a, b in zip(tr, tr[1:]))
    assert all(n >= 10 for n in seen.values()), seen


def test_future_beyond_the_bound_raises_the_same_error():
    state = ActorState(0.0, 0.0, 0.0, 10.0)
    history = state_trajectory("far", 3, 0.1, (state,))
    cfg = PredictionConfig(1e160, 0.0, 2, 5)
    with pytest.raises(ValueError) as got:
        sample_predictions(history, 20, cfg)
    with pytest.raises(ValueError) as want:
        reference_sample_predictions(history, 20, cfg)
    assert str(got.value) == str(want.value)
    assert f"beyond {MAX_MAGNITUDE:g}" in str(got.value)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 128, 129, 300])
def test_mean_and_variance_equal_numpy(n):
    rng = random.Random(n)
    for case in range(60):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        if case % 10 == 0:
            gammas = [scale] * n
        else:
            gammas = [rng.choice((1.0, -1.0)) * rng.uniform(0.0, scale)
                      * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
        got = mean_and_variance(gammas)
        want = reference_mean_and_variance(gammas)
        assert (got[0].hex(), got[1].hex()) == \
            (want[0].hex(), want[1].hex()), gammas


# ---------------------------------------------------------------------------
# The tables against numpy's static library
# ---------------------------------------------------------------------------

ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"


def ar_member(data: bytes, want: str) -> bytes:
    """The member want of the ar archive data (GNU long names too)."""
    assert data[:8] == b"!<arch>\n"
    pos, names = 8, b""
    while pos < len(data):
        header = data[pos:pos + 60]
        name, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        if name == "//":
            names = body
        elif name[:1] == "/" and name[1:].isdigit():
            start = int(name[1:])
            name = names[start:names.index(b"/\n", start)].decode()
        if name.rstrip("/") == want:
            return body
        pos += 60 + size + size % 2
    raise KeyError(want)


def elf_symbols(obj: bytes, names: set) -> dict:
    """The bytes of each symbol of names in the little-endian ELF64
    object obj, from its symbol tables and the sections they point to."""
    assert obj[:6] == b"\x7fELF\x02\x01"
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    size, count = struct.unpack_from("<HH", obj, 0x3A)
    # (type, offset, size, link) of each section header
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + i * size)
                for i in range(count)]
    found = {}
    for kind, offset, length, link in sections:
        if kind != 2:   # SHT_SYMTAB
            continue
        strtab = sections[link][1]
        for at in range(offset, offset + length, 24):
            name, shndx, value, nbytes = struct.unpack_from(
                "<I2xHQQ", obj, at)
            start = strtab + name
            symbol = obj[start:obj.index(b"\0", start)].decode()
            if symbol in names:
                base = sections[shndx][1] + value
                found[symbol] = obj[base:base + nbytes]
    return found


@pytest.mark.skipif(not ARCHIVE.is_file(),
                    reason=f"numpy ships no {ARCHIVE.name} here")
def test_tables_equal_numpy_archive():
    symbols = elf_symbols(ar_member(ARCHIVE.read_bytes(), MEMBER),
                          {"ki_double", "wi_double", "fi_double"})
    assert symbols["ki_double"] == struct.pack("<256Q", *KI)
    assert symbols["wi_double"] == struct.pack("<256d", *WI)
    assert symbols["fi_double"] == struct.pack("<256d", *FI)
