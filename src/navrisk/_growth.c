/* The sampling planner's kernel.  navrisk_leave_one_out plans every
   world of one leave-one-out experiment in a single call; it is the one
   entry point the package calls, through planner._plan_worlds, for
   risk.leave_one_out and for planner.plan_sampling, which asks for the
   full world alone.  Its parts, the tree growth (navrisk_grow), the
   endpoint selection (navrisk_select) and the edge check
   (navrisk_edge_blockers), are exported for the tests that check each
   against its reference (tests/kernel_calls.py).

   Every float is computed by the same binary64 expressions, in the same
   order, as the all-numpy reference growth (tests/oracles.py,
   reference_grow_tree), so the two trees are equal bit for bit, and as
   the Python reference selection (reference_select_endpoint), so the
   two select the same endpoint and positions.  That holds only if the
   compiler keeps each operation as written: no fused multiply-add
   (-ffp-contract=off) and no reassociation (no -ffast-math).
   navrisk/_kernel.py builds this file with those flags.

   The growth's sample stream is drawn here too (navrisk_uniform), and
   the planner seed of each replan tick (navrisk_seed_state): numpy's
   SeedSequence, PCG64 and Generator.uniform, ported bit for bit, so that
   a run that samples no futures never loads numpy.random.  The numpy
   forms are the references they are tested against (tests/oracles.py,
   reference_sample_stream and reference_planner_seed).

   navrisk_hypot_sum adds the displacements that every gamma_euclid,
   prediction error and plan's path length and speed changes are made
   of, as numpy's np.sum of np.hypot does, so that a run that samples no
   futures never loads numpy (tests/oracles.py, reference_mean_distance,
   reference_plan_cost and reference_speed_change).

   navrisk_lattice walks the maneuver lattice depth first and counts the
   plans each obstacle row blocks, with the binary64 expressions of the
   earlier numpy level render (tests/oracles.py,
   reference_lattice_blockers), so that the exact risks load no numpy
   either. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The one edge rule.  The actors that the edge p0 -> p1 hits at the
   integer ticks its traversal from tick0 to tick1 covers: how many,
   stopping at 2, written to found in ascending order.  obs is the
   (m, kp1, 2) array of obstacle positions per tick and r2 the (m,)
   squared radius sums: a squared distance strictly below r2 is a hit, as
   in planner._hits.  The ego's point at each covered tick is computed
   once, into pts (2 * kp1 entries), and tested against every actor,
   every tick with no branch, since a branch per pair mispredicts.  The
   caller keeps 0 <= tick0 and tick1 < kp1. */
static int blockers(double p0x, double p0y, double p1x, double p1y,
                    double tick0, double tick1, const double *obs, int kp1,
                    const double *r2, int m, double *pts, int32_t *found)
{
    long j0 = (long)floor(tick0) + 1;   /* first integer tick after tick0 */
    long j1 = (long)floor(tick1);       /* last integer tick <= tick1 */
    double span = tick1 - tick0, ddx = p1x - p0x, ddy = p1y - p0y;
    int nt = 0;
    for (long j = j0; j <= j1; j++, nt++) {
        double frac = ((double)j - tick0) / span;
        pts[2 * nt] = p0x + frac * ddx;
        pts[2 * nt + 1] = p0y + frac * ddy;
    }
    int count = 0;
    for (int a = 0; a < m && nt > 0; a++) {
        const double *o = obs + ((size_t)a * kp1 + (size_t)j0) * 2;
        int hit = 0;
        for (int q = 0; q < nt; q++) {
            double dx = o[2 * q] - pts[2 * q];
            double dy = o[2 * q + 1] - pts[2 * q + 1];
            hit |= dx * dx + dy * dy < r2[a];
        }
        if (hit) {
            found[count++] = a;
            if (count == 2)
                break;
        }
    }
    return count;
}

/* blockers on its own, for the tests; -1 when its work memory cannot
   be had. */
int navrisk_edge_blockers(double p0x, double p0y, double p1x, double p1y,
                          double tick0, double tick1, const double *obs,
                          int kp1, const double *r2, int m, int32_t *found)
{
    double *pts = malloc(2 * (size_t)kp1 * sizeof(double));
    if (pts == NULL)
        return -1;
    int count = blockers(p0x, p0y, p1x, p1y, tick0, tick1, obs, kp1, r2, m,
                         pts, found);
    free(pts);
    return count;
}

/* bisect_left: the first position in keys[0:n] whose key is >= v, for
   n >= 1.  Each step halves the range with a select, not a branch. */
static int lower_bound(const double *keys, int n, double v)
{
    const double *base = keys;
    while (n > 1) {
        int half = n / 2;
        base = base[half] < v ? base + half : base;
        n -= half;
    }
    return (int)(base - keys) + (*base < v);
}

/* One step of a nearest-node scan over the x-sorted keys: node i at
   (x, y).  Returns 0 once dx * dx exceeds the best d2, since it only
   grows along a scan. */
static int closer(double x, double y, int i, double sx, double sy,
                  int *best, double *best_d2)
{
    double dx = x - sx;
    double dx2 = dx * dx;
    if (dx2 > *best_d2)
        return 0;
    double dy = y - sy;
    double d2 = dx2 + dy * dy;
    /* np.argmin's rule: the lowest index among equal d2 */
    if (d2 < *best_d2 || (d2 == *best_d2 && i < *best)) {
        *best = i;
        *best_d2 = d2;
    }
    return 1;
}

/* Grow the rewiring tree from the root (x0, y0) over the budget samples
   (sx, sy) pairs, exactly as the numpy reference grows it; obs, kp1, r2
   and m as for blockers, with kp1 > k.  Fills xy (n, 2), cost, tick and
   parent for the n nodes it returns, and sets sole[a] when some connect
   or rewire edge check was blocked by actor a alone.  Every output array
   holds budget + 1 entries.  Returns -1 when memory for the work arrays
   cannot be had.

   The nodes are also kept sorted by x, with their y beside, for the two
   scans: the nearest node, and the neighbours within 2 * steer, which
   end where dx * dx passes the bound.  dx is a rounded difference from a
   fixed x, so it only grows in magnitude along either scan, and so does
   dx * dx. */
int navrisk_grow(const double *samples, int budget, double x0, double y0,
                 double y_lo, double y_hi, double inv, double steer, int k,
                 const double *obs, int kp1, const double *r2, int m,
                 double *xy, double *cost, double *tick, int32_t *parent,
                 uint8_t *sole)
{
    size_t n_max = (size_t)budget + 1;
    double *dwork = malloc((5 * n_max + 2 * (size_t)kp1) * sizeof(double));
    int32_t *iwork = malloc(4 * n_max * sizeof(int32_t));
    if (dwork == NULL || iwork == NULL) {
        free(dwork);
        free(iwork);
        return -1;
    }
    double *xkey = dwork, *ykey = dwork + n_max, *nb_d = dwork + 2 * n_max,
           *c_key = dwork + 3 * n_max, *c_tick = dwork + 4 * n_max,
           *pts = dwork + 5 * n_max;
    int32_t *children = iwork, *xid = iwork + n_max, *nb_i = iwork + 2 * n_max,
            *c_nb = iwork + 3 * n_max;
    double r = 2.0 * steer, r2_rewire = r * r;
    int32_t found[2];

    xy[0] = x0;
    xy[1] = y0;
    cost[0] = 0.0;
    tick[0] = 0.0;
    parent[0] = -1;
    children[0] = 0;
    xkey[0] = x0;
    ykey[0] = y0;
    xid[0] = 0;
    int n = 1;

    for (int s = 0; s < budget; s++) {
        double sx = samples[2 * s], sy = samples[2 * s + 1];

        /* the nearest node: scan right of sx, then left; 0 is np.argmin's
           answer should every d2 be inf */
        int best = 0;
        double best_d2 = INFINITY;
        int p = lower_bound(xkey, n, sx);
        for (int j = p; j < n; j++)
            if (!closer(xkey[j], ykey[j], xid[j], sx, sy, &best, &best_d2))
                break;
        for (int j = p - 1; j >= 0; j--)
            if (!closer(xkey[j], ykey[j], xid[j], sx, sy, &best, &best_d2))
                break;
        int ni = best;
        double dist = sqrt(best_d2);
        if (dist < 1e-12)
            continue;
        double f = (dist < steer ? dist : steer) / dist;
        double nx = xy[2 * ni], ny = xy[2 * ni + 1];
        double cx = nx + f * (sx - nx);
        double cy = ny + f * (sy - ny);
        if (cx < nx || !(y_lo <= cy && cy <= y_hi))
            continue;

        /* the neighbours within 2 * steer: scan right of cx, then left.
           They come in x order; every use below orders them by index
           (np.nonzero's order) where order matters */
        int at = lower_bound(xkey, n, cx), nb = 0;
        for (int j = at; j < n; j++) {
            double dx = xkey[j] - cx;
            double dx2 = dx * dx;
            if (dx2 > r2_rewire)
                break;
            double dy = ykey[j] - cy;
            nb_i[nb] = xid[j];
            nb_d[nb] = dx2 + dy * dy;
            nb += nb_d[nb] <= r2_rewire;
        }
        for (int j = at - 1; j >= 0; j--) {
            double dx = xkey[j] - cx;
            double dx2 = dx * dx;
            if (dx2 > r2_rewire)
                break;
            double dy = ykey[j] - cy;
            nb_i[nb] = xid[j];
            nb_d[nb] = dx2 + dy * dy;
            nb += nb_d[nb] <= r2_rewire;
        }
        for (int o = 0; o < nb; o++)
            nb_d[o] = sqrt(nb_d[o]);
        if (nb == 0) {
            double dx = nx - cx, dy = ny - cy;
            nb_i[0] = ni;
            nb_d[0] = sqrt(dx * dx + dy * dy);
            nb = 1;
        }

        /* connect through the cheapest neighbour whose edge is clear, by
           cost through it and then by index (np.lexsort's order).  A
           neighbour ahead of cx or arriving after k is never checked, so
           it is dropped first; of the rest, each pick is the least left. */
        int left = 0;
        for (int o = 0; o < nb; o++) {
            int i = nb_i[o];
            if (xy[2 * i] > cx + 1e-12)
                continue;
            double nt = tick[i] + nb_d[o] * inv;
            if (nt > k)
                continue;
            c_nb[left] = o;
            c_key[left] = cost[i] + nb_d[o];
            c_tick[left] = nt;
            left++;
        }
        int chosen = -1;
        double chosen_d = 0.0;
        while (left > 0) {
            int q = 0;
            for (int c = 1; c < left; c++)
                if (c_key[c] < c_key[q] ||
                    (c_key[c] == c_key[q] && nb_i[c_nb[c]] < nb_i[c_nb[q]]))
                    q = c;
            int o = c_nb[q], i = nb_i[o];
            int hit = blockers(xy[2 * i], xy[2 * i + 1], cx, cy, tick[i],
                               c_tick[q], obs, kp1, r2, m, pts, found);
            if (hit == 1)
                sole[found[0]] = 1;
            if (hit == 0) {
                chosen = i;
                chosen_d = nb_d[o];
                break;
            }
            left--;
            c_nb[q] = c_nb[left];
            c_key[q] = c_key[left];
            c_tick[q] = c_tick[left];
        }
        if (chosen < 0)
            continue;

        double c_n = cost[chosen] + chosen_d;
        double t_n = tick[chosen] + chosen_d * inv;
        xy[2 * n] = cx;
        xy[2 * n + 1] = cy;
        cost[n] = c_n;
        tick[n] = t_n;
        parent[n] = chosen;
        children[n] = 0;
        children[chosen]++;
        memmove(xkey + at + 1, xkey + at, (size_t)(n - at) * sizeof(double));
        memmove(ykey + at + 1, ykey + at, (size_t)(n - at) * sizeof(double));
        memmove(xid + at + 1, xid + at, (size_t)(n - at) * sizeof(int32_t));
        xkey[at] = cx;
        ykey[at] = cy;
        xid[at] = n;

        /* rewire: re-parent cheaper-through-new leaves; leaves only, so no
           arrival-time cascade needs repair.  A re-parenting can turn a
           later neighbour into a leaf, so they are visited by ascending
           index.  Only whether a node is a leaf changes on the way, so
           the other tests come first, and the few that pass are sorted */
        left = 0;
        for (int o = 0; o < nb; o++) {
            int i = nb_i[o];
            if (i == chosen)
                continue;
            double d_i = nb_d[o];
            double nc = c_n + d_i;
            if (nc + 1e-12 >= cost[i])
                continue;
            if (xy[2 * i] + 1e-12 < cx)
                continue;
            double nt = t_n + d_i * inv;
            if (nt > k)
                continue;
            int q = left++;
            for (; q > 0 && nb_i[c_nb[q - 1]] > i; q--) {
                c_nb[q] = c_nb[q - 1];
                c_key[q] = c_key[q - 1];
                c_tick[q] = c_tick[q - 1];
            }
            c_nb[q] = o;
            c_key[q] = nc;
            c_tick[q] = nt;
        }
        for (int q = 0; q < left; q++) {
            int i = nb_i[c_nb[q]];
            if (children[i] > 0)
                continue;
            int hit = blockers(cx, cy, xy[2 * i], xy[2 * i + 1], t_n,
                               c_tick[q], obs, kp1, r2, m, pts, found);
            if (hit == 1)
                sole[found[0]] = 1;
            if (hit == 0) {
                children[parent[i]]--;
                parent[i] = n;
                cost[i] = c_key[q];
                tick[i] = c_tick[q];
                children[n]++;
            }
        }
        n++;
    }
    free(dwork);
    free(iwork);
    return n;
}

/* The order of one endpoint round: a before b, 0 if equal, NaN after
   every number, as np.lexsort orders keys. */
static int key_order(double a, double b)
{
    int na = a != a, nb = b != b;
    if (na || nb)
        return na - nb;
    return (a > b) - (a < b);
}

/* Whether node i comes before node j in a round: by key1, then by key2
   when it is not NULL, then by index.  Strict and total, so the round's
   next candidate is the first node after the previous one. */
static int precedes(const double *key1, const double *key2, int i, int j)
{
    int c = key_order(key1[i], key1[j]);
    if (c == 0 && key2 != NULL)
        c = key_order(key2[i], key2[j]);
    return c < 0 || (c == 0 && i < j);
}

/* Whether (x, y), parked from tick `from` to k, stays clear of every
   actor, by planner._hits' strict rule. */
static int hold_free(double x, double y, double from, int k,
                     const double *obs, int kp1, const double *r2, int m)
{
    double j0 = ceil(from);
    if (!(j0 <= k))
        return 1;
    for (int a = 0; a < m; a++) {
        const double *o = obs + (size_t)a * kp1 * 2;
        for (long j = (long)j0; j <= k; j++) {
            double dx = o[2 * j] - x, dy = o[2 * j + 1] - y;
            if (dx * dx + dy * dy < r2[a])
                return 0;
        }
    }
    return 1;
}

/* Walk the nv vertices at `step` meters per tick for ticks 0..k, holding
   the last vertex once the path is exhausted: writes path (k+1, 2) and
   the segment index of each tick, -1 while holding.  seg_len and cum
   hold nv entries each. */
static void render(const double *v, int nv, double step, int k,
                   double *seg_len, double *cum, double *path, int32_t *seg)
{
    int ns = nv - 1;
    cum[0] = 0.0;
    for (int i = 0; i < ns; i++) {
        seg_len[i] = hypot(v[2 * i + 2] - v[2 * i],
                           v[2 * i + 3] - v[2 * i + 1]);
        cum[i + 1] = cum[i] + seg_len[i];
    }
    double total = cum[ns];
    for (int j = 0; j <= k; j++) {
        double s = (double)j * step;
        if (s >= total || total == 0.0) {
            path[2 * j] = v[2 * ns];
            path[2 * j + 1] = v[2 * ns + 1];
            seg[j] = -1;
            continue;
        }
        /* bisect_right: the last i with cum[i] <= s */
        int lo = 0, hi = ns + 1;
        while (lo < hi) {
            int mid = lo + (hi - lo) / 2;
            if (s < cum[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        int i = lo - 1 < ns - 1 ? lo - 1 : ns - 1;
        double f = seg_len[i] > 0 ? (s - cum[i]) / seg_len[i] : 0.0;
        path[2 * j] = v[2 * i] + f * (v[2 * i + 2] - v[2 * i]);
        path[2 * j + 1] = v[2 * i + 1] + f * (v[2 * i + 3] - v[2 * i + 1]);
        seg[j] = i;
    }
}

#define CANDIDATES 200   /* per round */

/* Select the endpoint of a grown tree of n nodes (xy, cost, tick, parent
   as navrisk_grow writes them) toward the goal (gx, gy) among obs, kp1,
   r2 and m as for blockers, with kp1 > k: the cheapest path into the
   goal region that stays clear, connected to the goal point when that
   edge is clear, else the closest-approach path, flagged partial.  Each
   round tries up to CANDIDATES nodes: those within tol of the goal by
   cost, then every node by goal distance and cost, ties to the lower
   index.  A candidate's plan parks at its endpoint until k, so the
   endpoint must stay clear until then, and so must every rendered tick.
   inv is ticks per meter and step meters per tick.  Writes the chosen
   path's vertices (at most n + 1) to verts, its positions (k+1, 2) to
   path and the segment of each tick to seg, and info[0] = partial,
   info[1] = the vertex count.  Returns the endpoint's node, -1 when no
   candidate stays clear, -2 when memory for the work arrays cannot be
   had and -3 when a parent chain is not a path to the root. */
int navrisk_select(const double *xy, const double *cost, const double *tick,
                   const int32_t *parent, int n, double gx, double gy,
                   double tol, double inv, double step, int k,
                   const double *obs, int kp1, const double *r2, int m,
                   double *verts, double *path, int32_t *seg, int32_t *info)
{
    double *work = malloc((3 * (size_t)n + 2 + 2 * (size_t)kp1) *
                          sizeof(double));
    if (work == NULL)
        return -2;
    double *gd = work, *seg_len = work + n, *cum = work + 2 * (size_t)n + 1,
           *pts = work + 3 * (size_t)n + 2;
    int32_t found[2];
    int result = -1;

    for (int i = 0; i < n; i++)
        gd[i] = hypot(xy[2 * i] - gx, xy[2 * i + 1] - gy);

    /* round 0: the nodes in the goal region by cost; round 1, partial:
       every node by goal distance, then cost */
    for (int partial = 0; partial < 2 && result == -1; partial++) {
        const double *key1 = partial ? gd : cost;
        const double *key2 = partial ? cost : NULL;
        int prev = -1;
        for (int c = 0; c < CANDIDATES && result == -1; c++) {
            int best = -1;
            for (int i = 0; i < n; i++) {
                if (!partial && !(gd[i] <= tol))
                    continue;
                if ((prev < 0 || precedes(key1, key2, prev, i)) &&
                    (best < 0 || precedes(key1, key2, i, best)))
                    best = i;
            }
            if (best < 0)
                break;
            prev = best;

            /* the chain root .. best into verts */
            int nv = 0;
            for (int p = best; p >= 0; p = parent[p]) {
                if (p >= n || nv == n) {
                    result = -3;
                    break;
                }
                nv++;
            }
            if (result == -3)
                break;
            for (int p = best, q = nv - 1; p >= 0; p = parent[p], q--) {
                verts[2 * q] = xy[2 * p];
                verts[2 * q + 1] = xy[2 * p + 1];
            }

            /* connect to the goal point when that edge and the hold there
               are clear; the plan parks at its endpoint until k */
            double end_x = xy[2 * best], end_y = xy[2 * best + 1];
            int to_goal = 0;
            if (!partial && gd[best] > 1e-9 && gx + 1e-12 >= end_x) {
                double nt = tick[best] + gd[best] * inv;
                if (nt <= k &&
                    blockers(end_x, end_y, gx, gy, tick[best], nt, obs, kp1,
                             r2, m, pts, found) == 0 &&
                    hold_free(gx, gy, nt, k, obs, kp1, r2, m)) {
                    verts[2 * nv] = gx;
                    verts[2 * nv + 1] = gy;
                    nv++;
                    to_goal = 1;
                }
            }
            if (!to_goal &&
                !hold_free(end_x, end_y, tick[best], k, obs, kp1, r2, m))
                continue;

            render(verts, nv, step, k, seg_len, cum, path, seg);
            int clear = 1;
            for (int a = 0; a < m && clear; a++) {
                const double *o = obs + (size_t)a * kp1 * 2;
                for (int j = 0; j <= k; j++) {
                    double dx = o[2 * j] - path[2 * j];
                    double dy = o[2 * j + 1] - path[2 * j + 1];
                    if (dx * dx + dy * dy < r2[a]) {
                        clear = 0;
                        break;
                    }
                }
            }
            if (clear) {
                info[0] = partial;
                info[1] = nv;
                result = best;
            }
        }
    }
    free(work);
    return result;
}

/* What one world's selection gave: no plan, a partial one, or one into
   the goal region. */
enum { NO_PLAN = 0, PARTIAL = 1, REACHED = 2 };

/* navrisk_select on a tree of n nodes, n = 0 when the root is blocked:
   the world's status, or navrisk_select's -2 or -3.  A tree of the root
   alone has no plan. */
static int plan_world(const double *xy, const double *cost,
                      const double *tick, const int32_t *parent, int n,
                      const double *goal, double tol, double inv,
                      double step, int k, const double *obs, int kp1,
                      const double *r2, int m, double *verts, double *path,
                      int32_t *seg, int32_t *info)
{
    if (n <= 1)
        return NO_PLAN;
    int best = navrisk_select(xy, cost, tick, parent, n, goal[0], goal[1],
                              tol, inv, step, k, obs, kp1, r2, m, verts,
                              path, seg, info);
    if (best == -1)
        return NO_PLAN;
    if (best < 0)
        return best;
    return info[0] ? PARTIAL : REACHED;
}

/* The worlds of one leave-one-out experiment, as risk.leave_one_out
   documents: the full world among obs, kp1, r2 and m (as for blockers,
   with kp1 > k), and for each actor a with wanted[a] the world without
   a, every one grown from the root (x0, y0) on the same budget samples
   (as for navrisk_grow) and selected toward its own goal, goals[0] for
   the full world and goals[1 + a] without a (as for navrisk_select).

   The root is checked at tick 0 by hold_free.  The full world is grown
   once; the world without a reuses its tree unless a was a sole blocker
   of one of its edge checks, and grows its own on the rows without a
   when it was or when the full root is blocked.  Either way that world
   is selected among the rows without a.

   Writes each planned world's positions to paths (m + 1, k + 1, 2), row
   0 the full world and row 1 + a the world without a, and its status
   (0 no plan, 1 partial, 2 into the goal region) to status; the full
   path's vertices to verts (budget + 2, 2) and its segment per tick to
   seg (k + 1), with info[0] = partial, info[1] = the vertex count,
   info[2] = the full tree's node count (0 when the root is blocked) and
   info[3] = the trees grown; and regrown[a] = 1 when the world without
   a did not reuse the full tree.  Returns 0, -2 when memory for the work
   arrays cannot be had and -3 when a parent chain is not a path to the
   root. */
int navrisk_leave_one_out(const double *samples, int budget, double x0,
                          double y0, double y_lo, double y_hi, double inv,
                          double steer, double tol, double step, int k,
                          const double *obs, int kp1, const double *r2,
                          int m, const double *goals, const uint8_t *wanted,
                          double *paths, int32_t *status, double *verts,
                          int32_t *seg, int32_t *info, uint8_t *regrown)
{
    size_t n_max = (size_t)budget + 1, row = 2 * (size_t)kp1;
    size_t rows = m > 0 ? (size_t)m - 1 : 0;
    /* two trees (the full world's and one ablated world's), the ablated
       rows, and an ablated selection's vertices and segments */
    double *dwork = malloc((8 * n_max + rows * (row + 1) + 2 * n_max + 2) *
                           sizeof(double));
    int32_t *iwork = malloc((2 * n_max + (size_t)k + 1) * sizeof(int32_t));
    uint8_t *sole = malloc(2 * (size_t)m + 1);
    if (dwork == NULL || iwork == NULL || sole == NULL) {
        free(dwork);
        free(iwork);
        free(sole);
        return -2;
    }
    double *xy = dwork, *cost = dwork + 2 * n_max, *tick = dwork + 3 * n_max;
    double *w_xy = dwork + 4 * n_max, *w_cost = dwork + 6 * n_max,
           *w_tick = dwork + 7 * n_max;
    double *w_obs = dwork + 8 * n_max, *w_r2 = w_obs + rows * row,
           *w_verts = w_r2 + rows;
    int32_t *parent = iwork, *w_parent = iwork + n_max,
            *w_seg = iwork + 2 * n_max;
    uint8_t *w_sole = sole + m;
    int32_t w_info[2];
    size_t path_size = 2 * ((size_t)k + 1);
    int growths = 0, result = 0;

    memset(sole, 0, 2 * (size_t)m + 1);
    int n = 0;   /* no tree: the root is blocked */
    if (hold_free(x0, y0, 0.0, 0, obs, kp1, r2, m)) {
        n = navrisk_grow(samples, budget, x0, y0, y_lo, y_hi, inv, steer, k,
                         obs, kp1, r2, m, xy, cost, tick, parent, sole);
        growths++;
    }
    if (n < 0)
        result = -2;
    if (result == 0)
        result = status[0] = plan_world(
            xy, cost, tick, parent, n, goals, tol, inv, step, k, obs, kp1,
            r2, m, verts, paths, seg, info);

    for (int a = 0; a < m && result >= 0; a++) {
        if (!wanted[a])
            continue;
        /* the rows without a */
        memcpy(w_obs, obs, (size_t)a * row * sizeof(double));
        memcpy(w_obs + (size_t)a * row, obs + ((size_t)a + 1) * row,
               (size_t)(m - 1 - a) * row * sizeof(double));
        memcpy(w_r2, r2, (size_t)a * sizeof(double));
        memcpy(w_r2 + a, r2 + a + 1, (size_t)(m - 1 - a) * sizeof(double));
        const double *t_xy = xy, *t_cost = cost, *t_tick = tick;
        const int32_t *t_parent = parent;
        int t_n = n;
        if (n == 0 || sole[a]) {
            regrown[a] = 1;
            t_xy = w_xy;
            t_cost = w_cost;
            t_tick = w_tick;
            t_parent = w_parent;
            t_n = 0;
            if (hold_free(x0, y0, 0.0, 0, w_obs, kp1, w_r2, m - 1)) {
                t_n = navrisk_grow(samples, budget, x0, y0, y_lo, y_hi, inv,
                                   steer, k, w_obs, kp1, w_r2, m - 1, w_xy,
                                   w_cost, w_tick, w_parent, w_sole);
                growths++;
                if (t_n < 0) {
                    result = -2;
                    break;
                }
            }
        }
        result = status[1 + a] = plan_world(
            t_xy, t_cost, t_tick, t_parent, t_n, goals + 2 * (1 + a), tol,
            inv, step, k, w_obs, kp1, w_r2, m - 1, w_verts,
            paths + (1 + (size_t)a) * path_size, w_seg, w_info);
    }
    info[2] = n;
    info[3] = growths;
    free(dwork);
    free(iwork);
    free(sole);
    return result < 0 ? result : 0;
}

/* numpy's SeedSequence: a pool of POOL uint32 words mixed from the
   entropy, with numpy's constants. */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* Word i of SeedSequence's assembled entropy: the n_run words of the run
   entropy, zeros up to n_pad, then the spawn key's words. */
static uint32_t entropy_word(const uint32_t *run, int n_run, int n_pad,
                             const uint32_t *spawn, int i)
{
    if (i < n_run)
        return run[i];
    return i < n_pad ? 0 : spawn[i - n_pad];
}

/* The pool of SeedSequence(entropy, spawn_key), given as little-endian
   uint32 words, n_run >= 1 of them for the entropy (numpy's [0] for 0)
   and n_spawn >= 0 for the spawn key.  The run entropy is zero-padded to
   POOL words when a spawn key follows, as numpy pads it. */
static void seed_pool(const uint32_t *run, int n_run, const uint32_t *spawn,
                      int n_spawn, uint32_t *pool)
{
    int n_pad = n_spawn > 0 && n_run < POOL ? POOL : n_run;
    int n = n_pad + n_spawn;
    uint32_t h = INIT_A;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < n ? entropy_word(run, n_run, n_pad, spawn, i)
                                : 0, &h);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (int src = POOL; src < n; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst],
                            hashmix(entropy_word(run, n_run, n_pad, spawn,
                                                 src), &h));
}

/* SeedSequence.generate_state(n, np.uint64) of pool: 2 * n uint32 words,
   each pair joined low word first. */
static void generate_state(const uint32_t *pool, uint64_t *out, int n)
{
    uint32_t h = INIT_B;
    for (int i = 0; i < 2 * n; i++) {
        uint32_t v = pool[i % POOL] ^ h;
        h *= MULT_B;
        v *= h;
        v ^= v >> 16;
        if (i % 2 == 0)
            out[i / 2] = v;
        else
            out[i / 2] |= (uint64_t)v << 32;
    }
}

/* SeedSequence(entropy, spawn_key).generate_state(n, np.uint64) into
   out, with entropy and spawn_key as for seed_pool. */
void navrisk_seed_state(const uint32_t *run, int n_run,
                        const uint32_t *spawn, int n_spawn, uint64_t *out,
                        int n)
{
    uint32_t pool[POOL];
    seed_pool(run, n_run, spawn, n_spawn, pool);
    generate_state(pool, out, n);
}

/* numpy's PCG64: a 128-bit LCG, held as two uint64 halves (ISO C has no
   128-bit integer), with the XSL-RR output. */
typedef struct {
    uint64_t hi, lo;
} u128;

static const u128 PCG_MULT = {2549297995355413924ull, 4865540595714422341ull};

/* the full 128-bit product of two uint64s */
static u128 mul_64(uint64_t x, uint64_t y)
{
    uint64_t x0 = x & 0xffffffffu, x1 = x >> 32;
    uint64_t y0 = y & 0xffffffffu, y1 = y >> 32;
    uint64_t w0 = x0 * y0;
    uint64_t t = x1 * y0 + (w0 >> 32);
    uint64_t w1 = (t & 0xffffffffu) + x0 * y1;
    u128 r = {x1 * y1 + (t >> 32) + (w1 >> 32), x * y};
    return r;
}

/* state * PCG_MULT + inc, mod 2^128 */
static u128 pcg_step(u128 state, u128 inc)
{
    u128 r = mul_64(state.lo, PCG_MULT.lo);
    r.hi += state.hi * PCG_MULT.lo + state.lo * PCG_MULT.hi;
    r.lo += inc.lo;
    r.hi += inc.hi + (r.lo < inc.lo);
    return r;
}

typedef struct {
    u128 state, inc;
} pcg64;

/* PCG64(SeedSequence(entropy)), entropy as for seed_pool: state 0, inc
   = (seed[2:4] << 1) | 1, a step, seed[0:2] added, another step, for the
   seed words generate_state(4, np.uint64) */
static pcg64 pcg_seeded(const uint32_t *run, int n_run)
{
    uint32_t pool[POOL];
    uint64_t seed[4];
    seed_pool(run, n_run, NULL, 0, pool);
    generate_state(pool, seed, 4);
    pcg64 g = {{0, 0}, {seed[2] << 1 | seed[3] >> 63, seed[3] << 1 | 1u}};
    g.state = pcg_step(g.state, g.inc);
    g.state.lo += seed[1];
    g.state.hi += seed[0] + (g.state.lo < seed[1]);
    g.state = pcg_step(g.state, g.inc);
    return g;
}

/* the next double in [0, 1) of Generator(g): a step, then the XSL-RR
   output's top 53 bits */
static double next_double(pcg64 *g)
{
    g->state = pcg_step(g->state, g->inc);
    uint64_t x = g->state.hi ^ g->state.lo;
    unsigned rot = (unsigned)(g->state.hi >> 58);
    uint64_t bits = x >> rot | x << ((64u - rot) & 63u);
    return (double)(bits >> 11) * (1.0 / 9007199254740992.0);
}

/* Generator(PCG64(SeedSequence(entropy))).uniform((x_lo, y_lo), (x_hi,
   y_hi), (budget, 2)) into out (budget, 2), entropy as for seed_pool:
   x then y for each sample, each low + (high - low) * u. */
void navrisk_uniform(const uint32_t *run, int n_run, double x_lo,
                     double y_lo, double x_hi, double y_hi, int budget,
                     double *out)
{
    pcg64 g = pcg_seeded(run, n_run);
    double x_range = x_hi - x_lo, y_range = y_hi - y_lo;
    for (int s = 0; s < budget; s++) {
        out[2 * s] = x_lo + x_range * next_double(&g);
        out[2 * s + 1] = y_lo + y_range * next_double(&g);
    }
}

/* The displacement sums: libm's hypot, which numpy's np.hypot calls too
   (CPython's math.hypot is its own algorithm and differs in the last
   bit), summed in the order of numpy's pairwise summation, which
   np.add.reduce, np.sum and np.mean use on a contiguous float64 array. */

/* hypot of the i-th difference of the point arrays a (na points) and b
   (nb points), each holding its last point past its end. */
static double hypot_at(const double *a, long na, const double *b, long nb,
                       long i)
{
    const double *p = a + 2 * (i < na ? i : na - 1);
    const double *q = b + 2 * (i < nb ? i : nb - 1);
    return hypot(p[0] - q[0], p[1] - q[1]);
}

/* numpy's pairwise sum of the n terms from term lo: one accumulator from
   0.0 below 8 terms; up to 128, 8 accumulators over the blocks of 8,
   combined pairwise, then the rest one by one; above that, the two
   halves split at a multiple of 8. */
static double pairwise(const double *a, long na, const double *b, long nb,
                       long lo, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += hypot_at(a, na, b, nb, lo + i);
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = hypot_at(a, na, b, nb, lo + j);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += hypot_at(a, na, b, nb, lo + i + j);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += hypot_at(a, na, b, nb, lo + i);
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, na, b, nb, lo, n2) +
           pairwise(a, na, b, nb, lo + n2, n - n2);
}

/* The sum over i < max(na, nb) of hypot(a_i - b_i) for the (x, y) point
   arrays a (na points) and b (nb points), the shorter holding its last
   point: np.sum(np.hypot(d[:, 0], d[:, 1])) of the padded difference d,
   bit for bit.  0 when either array holds no point. */
double navrisk_hypot_sum(const double *a, int na, const double *b, int nb)
{
    if (na < 1 || nb < 1)
        return 0.0;
    return pairwise(a, na, b, nb, 0, na > nb ? na : nb);
}

/* The maneuver lattice, walked depth first.  The sequences of np
   maneuvers over steps decision steps are visited in product order (the
   maneuvers sorted, as LatticeConfig keeps them), each in-bounds prefix
   once: a prefix that leaves the lanes [0, lanes) or whose end speed
   passes limit + 1e-9 is dropped with all its extensions.  Maneuver p
   moves shift[p] lanes and changes the speed by accel[p] steps of step
   (+1 accelerates, -1 brakes to no less than 0).  With render 0 the walk
   only counts the in-bounds sequences, U, which it returns (-1 when out
   of memory); it writes nothing.

   With render 1 each in-bounds step is rendered with the binary64
   expressions of a sequence rendered alone (tests/oracles.py,
   walk_render): speed v0 + ((v1 - v0) * i) / m, trapezoidal x + (0.5 *
   (vc + v_i)) * dt and lateral y0 + ((y1 - y0) * 0.5) * ramp[i - 1], for
   the m ticks i = 1 .. m of the step, where (y0, v0) are the previous
   step's targets, not its last rendered tick.  ego holds (x, y, v) at
   tick 0 and lane its lane.

   A plan collides with obstacle row j of obs ((n, steps * m + 1, 2)
   positions, r2 (n) squared radius sums) iff some tick of it has
   dx * dx + dy * dy < r2[j] (planner._hits' rule).  Tick 0 is tested
   once per row; each step tests only its own m ticks, for the rows its
   parent prefix does not already hit, and inherits its parent's bits
   from a stack of depth steps.  The rows form nw world blocks of sizes
   ws[0 .. nw - 1].  For world block w, z[w] counts the plans no row of
   the block hits, and freed[j] the plans that row j alone of its block
   hits.  If cls is not NULL, cls[u * nw + w] is plan u's class in block
   w: -1 free, the index of row j within the block if j alone hits it,
   or -2, for the first cap plans.  If seq is not NULL, the first cap
   plans that no row hits are listed in order: seq (cap, steps) their
   maneuver indices and cols (cap, 3, steps * m + 1) their x, y and v
   columns. */
int64_t navrisk_lattice(const double *ego, int lane, const double *centers,
                        int lanes, double limit, double step, double dt,
                        const int *shift, const int *accel, int np,
                        int steps, int m, const double *ramp,
                        const double *obs, const double *r2, int n,
                        const int *ws, int nw, int render, int64_t *z,
                        int64_t *freed, int32_t *cls, int32_t *seq,
                        double *cols, int64_t cap)
{
    /* per depth d: the prefix's last rendered x and speed (xl, vl), the
       targets (yt, vt) and lane the next step starts from, the maneuver
       idx[d] of step d being tried and the bits of the rows the prefix
       hits; (px, py, pv) the columns of the path being walked */
    size_t kp1 = (size_t)steps * m + 1, nb = (size_t)(steps + 1) * n;
    double *xl = malloc(sizeof(double) * (4 * (size_t)(steps + 1) + 3 * kp1));
    int *ln = malloc(sizeof(int) * 2 * (size_t)(steps + 1));
    unsigned char *bits = malloc(nb ? nb : 1);
    if (!xl || !ln || !bits) {
        free(xl);
        free(ln);
        free(bits);
        return -1;
    }
    double *vl = xl + steps + 1, *yt = vl + steps + 1, *vt = yt + steps + 1;
    double *px = vt + steps + 1, *py = px + kp1, *pv = py + kp1;
    int *lane_at = ln, *idx = ln + steps + 1;
    double bound = limit + 1e-9;
    int64_t u = 0, kept = 0;

    xl[0] = px[0] = ego[0];
    yt[0] = py[0] = ego[1];
    vl[0] = vt[0] = pv[0] = ego[2];
    lane_at[0] = lane;
    for (int j = 0; j < n && render; j++) {
        double dx = obs[j * kp1 * 2] - ego[0];
        double dy = obs[j * kp1 * 2 + 1] - ego[1];
        bits[j] = dx * dx + dy * dy < r2[j];
    }
    int d = 0;
    idx[0] = 0;
    while (d >= 0) {
        if (idx[d] == np) {   /* every extension of this prefix is done */
            if (--d >= 0)
                idx[d]++;
            continue;
        }
        int p = idx[d];
        int to = lane_at[d] + shift[p];
        double v0 = vt[d], v1 = v0;
        if (accel[p] > 0)
            v1 = v0 + step;
        else if (accel[p] < 0)
            v1 = v0 - step > 0.0 ? v0 - step : 0.0;
        if (to < 0 || to >= lanes || v1 > bound) {
            idx[d]++;
            continue;
        }
        lane_at[d + 1] = to;
        vt[d + 1] = v1;
        yt[d + 1] = shift[p] ? centers[to] : yt[d];
        if (render) {
            size_t t0 = 1 + (size_t)d * m;
            double x = xl[d], vc = vl[d], y0 = yt[d], y1 = yt[d + 1];
            for (int i = 0; i < m; i++) {
                double vi = v0 + ((v1 - v0) * (i + 1)) / m;
                x = x + 0.5 * (vc + vi) * dt;
                px[t0 + i] = x;
                py[t0 + i] = y0 + ((y1 - y0) * 0.5) * ramp[i];
                pv[t0 + i] = vc = vi;
            }
            xl[d + 1] = x;
            vl[d + 1] = vc;
            const unsigned char *up = bits + (size_t)d * n;
            unsigned char *here = bits + (size_t)(d + 1) * n;
            for (int j = 0; j < n; j++) {
                unsigned char hit = up[j];
                const double *o = obs + ((size_t)j * kp1 + t0) * 2;
                for (int i = 0; i < m && !hit; i++) {
                    double dx = o[2 * i] - px[t0 + i];
                    double dy = o[2 * i + 1] - py[t0 + i];
                    hit = dx * dx + dy * dy < r2[j];
                }
                here[j] = hit;
            }
        }
        if (d + 1 < steps) {   /* descend into the extensions */
            idx[++d] = 0;
            continue;
        }
        if (render) {   /* a whole in-bounds sequence: plan u */
            const unsigned char *b = bits + (size_t)steps * n;
            int any = 0;
            for (int w = 0, j0 = 0; w < nw; j0 += ws[w++]) {
                int hits = 0, last = -1;
                for (int j = j0; j < j0 + ws[w]; j++)
                    if (b[j]) {
                        hits++;
                        last = j;
                    }
                if (hits == 0)
                    z[w]++;
                else if (hits == 1)
                    freed[last]++;
                if (cls && u < cap)
                    cls[u * nw + w] = hits == 0 ? -1 :
                                      hits == 1 ? last - j0 : -2;
                any |= hits;
            }
            if (seq && !any && kept < cap) {
                for (int s = 0; s < steps; s++)
                    seq[kept * steps + s] = idx[s];
                double *c = cols + (size_t)kept * 3 * kp1;
                memcpy(c, px, sizeof(double) * kp1);
                memcpy(c + kp1, py, sizeof(double) * kp1);
                memcpy(c + 2 * kp1, pv, sizeof(double) * kp1);
            }
            kept += !any;
        }
        u++;
        idx[d]++;
    }
    free(xl);
    free(ln);
    free(bits);
    return u;
}
