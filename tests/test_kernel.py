"""Building and loading the compiled growth kernel, navrisk/_growth.c.

Each test copies the package without its __pycache__, so it starts with
no cached library, and runs navrisk in a fresh interpreter on that copy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LOAD = ("from navrisk._kernel import kernel\n"
        "lib = kernel()\n"
        "print(lib.navrisk_grow is not None, lib._name)\n")


@pytest.fixture
def pkg(tmp_path):
    """A copy of the navrisk package with no cached library."""
    shutil.copytree(SRC / "navrisk", tmp_path / "navrisk",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "navrisk"


def run(pkg, code, *args, path=None, tmpdir=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(pkg.parent)
    if path is not None:
        env["PATH"] = str(path)
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def libraries(pkg):
    cache = pkg / "__pycache__"
    return sorted(p.name for p in cache.glob("_growth-*.so")) \
        if cache.is_dir() else []


def no_compiler(tmp_path):
    """A PATH with no cc on it."""
    empty = tmp_path / "empty-path"
    empty.mkdir(exist_ok=True)
    return empty


def test_second_load_runs_no_compiler(pkg, tmp_path):
    first = run(pkg, LOAD)
    assert first.returncode == 0, first.stderr
    built = libraries(pkg)
    assert len(built) == 1
    # readable by every user of the checkout, as a compiler's output is
    assert (pkg / "__pycache__" / built[0]).stat().st_mode & 0o777 == 0o755
    assert first.stdout.split() == ["True", str(pkg / "__pycache__" /
                                                built[0])]
    # no cc on PATH: the cached library is loaded as it is
    second = run(pkg, LOAD, path=no_compiler(tmp_path))
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert libraries(pkg) == built


def test_edited_source_gets_a_new_cache_name(pkg):
    assert run(pkg, LOAD).returncode == 0
    before = libraries(pkg)
    with open(pkg / "_growth.c", "a") as f:
        f.write("\n/* edited */\n")
    again = run(pkg, LOAD)
    assert again.returncode == 0, again.stderr
    # the new build replaces the superseded one
    after = libraries(pkg)
    assert len(before) == 1 and len(after) == 1 and after != before
    assert again.stdout.split()[1].endswith(after[0])


PLAN = (LOAD +
        "from navrisk.planner import plan_sampling, PlannerConfig\n"
        "from navrisk.scenario import ActorState, RoadMap\n"
        "road = RoadMap(3, 3.5, 300.0, 15.0)\n"
        "ego = ActorState(10.0, 5.25, 0.0, 10.0)\n"
        "cfg = PlannerConfig(iteration_budget=200)\n"
        "plan = plan_sampling(road, ego, 0, 30, {}, cfg, {})\n"
        "print(len(plan.trajectory))\n")


def test_unwritable_package_builds_privately(pkg, tmp_path):
    # read-only for any user but root; for root too, a file stands where
    # the cache directory would be
    (pkg / "__pycache__").write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    private = tmp / f"navrisk-{os.getuid()}"
    pkg.chmod(0o555)
    try:
        proc = run(pkg, PLAN, tmpdir=tmp)
        # a second process loads the per-user build: no cc on PATH
        again = run(pkg, PLAN, tmpdir=tmp, path=no_compiler(tmp_path))
    finally:
        pkg.chmod(0o755)
    assert proc.returncode == 0, proc.stderr
    loaded, length = proc.stdout.split()[1:]
    assert Path(loaded).parent == private and length == "31"
    assert again.returncode == 0, again.stderr
    assert again.stdout == proc.stdout
    # one library, in a directory closed to other users
    assert list(tmp.iterdir()) == [private]
    assert [p.name for p in private.iterdir()] == [Path(loaded).name]
    assert private.stat().st_mode & 0o777 == 0o700
    assert (pkg / "__pycache__").is_file()


def test_private_cache_keeps_other_builds(pkg, tmp_path):
    # other checkouts and interpreters share the per-user directory, so a
    # build there leaves their libraries alone
    (pkg / "__pycache__").write_text("")
    private = tmp_path / "tmp" / f"navrisk-{os.getuid()}"
    private.mkdir(parents=True, mode=0o700)
    other = private / "_growth-00000000.so"
    other.write_text("")
    proc = run(pkg, LOAD, tmpdir=private.parent)
    assert proc.returncode == 0, proc.stderr
    built = Path(proc.stdout.split()[1])
    assert sorted(private.iterdir()) == sorted([other, built])


def test_private_cache_must_be_private(pkg, tmp_path):
    (pkg / "__pycache__").write_text("")
    tmp = tmp_path / "tmp"
    private = tmp / f"navrisk-{os.getuid()}"
    private.mkdir(parents=True)
    private.chmod(0o777)   # others could plant a library in it
    refused = [run(pkg, PLAN, tmpdir=tmp)]
    if os.geteuid() == 0:   # only root can give it to another user
        private.chmod(0o700)
        os.chown(private, os.getuid() + 1, -1)
        refused.append(run(pkg, PLAN, tmpdir=tmp))
    for proc in refused:
        assert proc.returncode != 0
        assert f"{private} is not a directory private to this user" in \
            proc.stderr
    assert list(private.iterdir()) == []


def test_without_a_compiler_run_and_oracle_exit_2_casestudy_runs(pkg,
                                                                tmp_path):
    path = no_compiler(tmp_path)
    out, case = tmp_path / "out", tmp_path / "case.json"
    proc = run(pkg, "import sys\n"
               "from navrisk.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n",
               "run", "--casestudy-defaults", "--budget", "50",
               "--out", str(out), path=path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: cannot build the planner kernel: cc -O2 -std=c99")
    assert "Traceback" not in proc.stderr
    assert not (out / "run.csv").exists()
    # casestudy never builds or loads the kernel; oracle walks the lattice
    # in it, so it exits 2 as run does
    proc = run(pkg, "import sys\n"
               "from navrisk.cli import main\n"
               "from navrisk._kernel import kernel\n"
               "assert main(['casestudy', '--out', sys.argv[1]]) == 0\n"
               "print(kernel.cache_info().currsize)\n"
               "sys.exit(main(['oracle', '--scenario', sys.argv[1], '--t',\n"
               "               '20', '--k', '8', '--steps', '2']))\n",
               str(case), path=path)
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[-1] == "0"
    assert proc.stderr.startswith(
        "error: cannot build the planner kernel: cc -O2 -std=c99")
    assert "Traceback" not in proc.stderr
    assert libraries(pkg) == []


def test_flags_keep_every_operation_as_written():
    """The pins rest on each binary64 operation of _growth.c rounding as
    written, as numpy's and CPython's do.  -ffp-contract=off forbids
    fusing a * b + c into one multiply-add, which rounds once: without it
    the GNU dialects (-std=gnu99, gcc's default) fuse on any target with
    FMA, and a pinned run changes.  An ISO -std (c99, c11, ...) keeps
    those extensions off as well.  Neither flag may be dropped, and
    -ffast-math, which reassociates, may not be added."""
    from navrisk._kernel import FLAGS
    assert "-ffp-contract=off" in FLAGS
    stds = [f for f in FLAGS if f.startswith("-std=")]
    assert stds in (["-std=c99"], ["-std=c11"], ["-std=c17"])
    assert not any(f.startswith(("-ffast-math", "-Ofast",
                                 "-ffp-contract=f")) for f in FLAGS)
