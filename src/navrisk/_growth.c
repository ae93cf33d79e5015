/* The sampling planner's kernel.  navrisk_leave_one_out plans every
   world of one or more leave-one-out experiments in a single call, its
   tree growths spread over POSIX threads that it starts and joins; it is
   the one entry point the package plans through, planner._plan_worlds,
   for risk.leave_one_out, for the predicted and sampled worlds of one
   replan tick and for planner.plan_sampling, which asks for the full
   world alone.  Its parts, the tree growth (navrisk_grow), the
   endpoint selection (navrisk_select) and the edge check
   (navrisk_edge_blockers), are exported for the tests that check each
   against its reference (tests/kernel_calls.py).  The path check
   (navrisk_path_clear) is planner.collision_check.  Every check takes
   skip, an actor to pass over, so a world without actor a is its full
   world's rows read in place with skip = a, and the full world is
   skip = -1.

   Collision is one rule, written once (overlaps): an obstacle overlaps
   the ego iff dx * dx + dy * dy < r * r, strictly, on the radius sum r.
   The edge check, the path and hold checks and the lattice walk all call
   it, and every entry point takes the radius sums of
   planner.world_arrays, which it squares only there.

   Every float is computed by the same binary64 expressions, in the same
   order, as the all-numpy reference growth (tests/oracles.py,
   reference_grow_tree), so the two trees are equal bit for bit, and as
   the Python reference selection (reference_select_endpoint), so the
   two select the same endpoint and positions.  That holds only if the
   compiler keeps each operation as written: no fused multiply-add
   (-ffp-contract=off) and no reassociation (no -ffast-math).
   navrisk/_kernel.py builds this file with those flags.

   The growth's sample stream is drawn here too (navrisk_uniform), the
   planner seed of each replan tick (navrisk_seed_state) and each sampled
   future of an actor (navrisk_sample_future): numpy's SeedSequence,
   PCG64, Generator.uniform and Generator.normal, ported bit for bit, so
   that no run loads numpy.random.  The numpy forms are the references
   they are tested against (tests/oracles.py, reference_sample_stream,
   reference_planner_seed and reference_sample_predictions).

   navrisk_hypot_sum adds the displacements that every gamma_euclid,
   prediction error and plan's path length are made of, as numpy's
   np.sum of np.hypot does, and navrisk_sum a plan's speed changes and
   the Monte-Carlo means and variances, as np.sum, np.mean and np.var
   do, so that no run loads numpy (tests/oracles.py,
   reference_mean_distance, reference_plan_cost, reference_speed_change
   and reference_mean_and_variance).

   navrisk_lattice walks the maneuver lattice depth first and counts the
   plans each obstacle row blocks, with the binary64 expressions of the
   earlier numpy level render (tests/oracles.py,
   reference_lattice_blockers), so that the exact risks load no numpy
   either; navrisk_class_sum adds a KL importance's one term per plan
   class over the walk's classes, as np.sum adds the per-plan terms
   (tests/oracles.py, reference_kl). */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The collision rule: whether an obstacle (dx, dy) away overlaps, its
   squared distance strictly below the square of the radius sum r, so
   that contact is no collision.  Without fused multiply-add, r * r has
   the bits of Python's r * r, which world_arrays keeps finite. */
static int overlaps(double dx, double dy, double r)
{
    return dx * dx + dy * dy < r * r;
}

/* The edge check.  The actors that the edge p0 -> p1 hits at the
   integer ticks its traversal from tick0 to tick1 covers: how many,
   stopping at 2, written to found in ascending order.  obs is the
   (m, kp1, 2) array of obstacle positions per tick and rsum the (m,)
   radius sums; actor skip is passed over (-1 passes over none), so a
   world's rows read in place are its world without skip, and found
   indexes them.  The ego's point at each covered tick is computed once,
   into pts (2 * kp1 entries), and tested against every actor, every
   tick with no branch, since a branch per pair mispredicts.  The caller
   keeps 0 <= tick0 and tick1 < kp1. */
static int blockers(double p0x, double p0y, double p1x, double p1y,
                    double tick0, double tick1, const double *obs, int kp1,
                    const double *rsum, int m, int skip, double *pts,
                    int32_t *found)
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
        if (a == skip)
            continue;
        const double *o = obs + ((size_t)a * kp1 + (size_t)j0) * 2;
        int hit = 0;
        for (int q = 0; q < nt; q++)
            hit |= overlaps(o[2 * q] - pts[2 * q],
                            o[2 * q + 1] - pts[2 * q + 1], rsum[a]);
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
                          int kp1, const double *rsum, int m, int skip,
                          int32_t *found)
{
    double *pts = malloc(2 * (size_t)kp1 * sizeof(double));
    if (pts == NULL)
        return -1;
    int count = blockers(p0x, p0y, p1x, p1y, tick0, tick1, obs, kp1, rsum,
                         m, skip, pts, found);
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
   (sx, sy) pairs, exactly as the numpy reference grows it; obs, kp1,
   rsum, m and skip as for blockers, with kp1 > k.  Fills xy (n, 2),
   cost, tick and parent for the n nodes it returns, and, unless sole is
   NULL, sets sole[a] when some connect or rewire edge check was blocked
   by actor a alone.  Every output array holds budget + 1 entries.
   Returns -1 when memory for the work arrays cannot be had.

   The nodes are also kept sorted by x, with their y beside, for the two
   scans: the nearest node, and the neighbours within 2 * steer, which
   end where dx * dx passes the bound.  dx is a rounded difference from a
   fixed x, so it only grows in magnitude along either scan, and so does
   dx * dx. */
int navrisk_grow(const double *samples, int budget, double x0, double y0,
                 double y_lo, double y_hi, double inv, double steer, int k,
                 const double *obs, int kp1, const double *rsum, int m,
                 int skip, double *xy, double *cost, double *tick,
                 int32_t *parent, uint8_t *sole)
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
    double reach = 2.0 * steer, r2_rewire = reach * reach;
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
                               c_tick[q], obs, kp1, rsum, m, skip, pts, found);
            if (hit == 1 && sole != NULL)
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
                               c_tick[q], obs, kp1, rsum, m, skip, pts, found);
            if (hit == 1 && sole != NULL)
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

/* Whether the ego's positions at ticks j0..k stay clear of every actor
   but skip, its position at tick j at path[stride * j]: stride 2 for a
   path of (k+1, 2) positions, 0 for one parked point.  obs, kp1, rsum, m
   and skip as for blockers, with 0 <= j0 and kp1 > k. */
int navrisk_path_clear(const double *path, int stride, int j0, int k,
                       const double *obs, int kp1, const double *rsum, int m,
                       int skip)
{
    for (int a = 0; a < m; a++) {
        if (a == skip)
            continue;
        const double *o = obs + (size_t)a * kp1 * 2;
        for (int j = j0; j <= k; j++)
            if (overlaps(o[2 * j] - path[stride * j],
                         o[2 * j + 1] - path[stride * j + 1], rsum[a]))
                return 0;
    }
    return 1;
}

/* Whether (x, y), parked from tick `from` to k, stays clear of every
   actor but skip. */
static int hold_free(double x, double y, double from, int k,
                     const double *obs, int kp1, const double *rsum, int m,
                     int skip)
{
    double j0 = ceil(from);
    const double at[2] = {x, y};
    return !(j0 <= k) ||
           navrisk_path_clear(at, 0, (int)j0, k, obs, kp1, rsum, m, skip);
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
   rsum, m and skip as for blockers, with kp1 > k: the cheapest path
   into the goal region that stays clear, connected to the goal point
   when that edge is clear, else the closest-approach path, flagged
   partial.  Each round tries up to CANDIDATES nodes: those within tol of
   the goal by cost, then every node by goal distance and cost, ties to
   the lower index.  A candidate's plan parks at its endpoint until k, so
   the endpoint must stay clear until then, and so must every rendered
   tick.  inv is ticks per meter and step meters per tick.  Writes the
   chosen path's vertices (at most n + 1) to verts, its positions (k+1,
   2) to path and the segment of each tick to seg, and info[0] = partial,
   info[1] = the vertex count.  Returns the endpoint's node, -1 when no
   candidate stays clear, -2 when memory for the work arrays cannot be
   had and -3 when a parent chain is not a path to the root. */
int navrisk_select(const double *xy, const double *cost, const double *tick,
                   const int32_t *parent, int n, double gx, double gy,
                   double tol, double inv, double step, int k,
                   const double *obs, int kp1, const double *rsum, int m,
                   int skip, double *verts, double *path, int32_t *seg,
                   int32_t *info)
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
                             rsum, m, skip, pts, found) == 0 &&
                    hold_free(gx, gy, nt, k, obs, kp1, rsum, m, skip)) {
                    verts[2 * nv] = gx;
                    verts[2 * nv + 1] = gy;
                    nv++;
                    to_goal = 1;
                }
            }
            if (!to_goal && !hold_free(end_x, end_y, tick[best], k, obs,
                                       kp1, rsum, m, skip))
                continue;

            render(verts, nv, step, k, seg_len, cum, path, seg);
            if (navrisk_path_clear(path, 2, 0, k, obs, kp1, rsum, m, skip)) {
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
                      const double *rsum, int m, int skip, double *verts,
                      double *path, int32_t *seg, int32_t *info)
{
    if (n <= 1)
        return NO_PLAN;
    int best = navrisk_select(xy, cost, tick, parent, n, goal[0], goal[1],
                              tol, inv, step, k, obs, kp1, rsum, m, skip,
                              verts, path, seg, info);
    if (best == -1)
        return NO_PLAN;
    if (best < 0)
        return best;
    return info[0] ? PARTIAL : REACHED;
}

/* One call of navrisk_leave_one_out: its arguments, the full trees that
   phase A grows, one per world, and the items of the phase running.  The
   workers share it; each item writes only its own slices of the outputs,
   and the trees are read only after the phase that grew them joined. */
struct job {
    const double *samples, *obs, *rsum, *goals;
    double x0, y0, y_lo, y_hi, inv, steer, tol, step;
    int budget, k, kp1, m, n_worlds;
    double *paths, *verts;
    int32_t *status, *seg, *info;
    /* the full trees: node count (0 when the root is blocked), xy,
       cost, tick, parent and sole mask of each world */
    int32_t *nodes, *parent;
    double *xy, *cost, *tick;
    uint8_t *sole;
    uint8_t *grew;         /* (W, m + 1): 1 for each world that grew a tree */
    int32_t *items;        /* phase B: world * m + actor, regrowths first */
    int n_items, phase;
    int next;              /* the next item to take, only ever atomically */
};

/* One worker: its thread, and its work buffers for phase B: a tree
   grown without an actor, and an ablated selection's vertices, segments
   and info, which are not kept. */
struct worker {
    struct job *job;
    pthread_t thread;
    int started;
    double *xy, *cost, *tick, *verts;
    int32_t *parent, *seg, info[2];
};

/* One item: world w's full world when a < 0 (phase A), else world w
   without actor a (phase B): w's rows read in place with skip = a.  It
   is selected on w's full tree unless a was a sole blocker of w's growth
   or w's root is blocked.  A tree is grown from the root when the root
   is clear: the full world's into w's slot of the full trees, with its
   sole flags, an ablated world's into the worker's buffers, with none,
   since none are read. */
static void plan_item(const struct job *j, struct worker *me, int w, int a)
{
    size_t n_max = (size_t)j->budget + 1, row = 2 * (size_t)j->kp1;
    size_t slot = (size_t)w * ((size_t)j->m + 1) + (size_t)(1 + a);
    const double *obs = j->obs + (size_t)w * (size_t)j->m * row,
                 *rsum = j->rsum;
    double *xy = j->xy + 2 * n_max * (size_t)w,
           *cost = j->cost + n_max * (size_t)w,
           *tick = j->tick + n_max * (size_t)w,
           *verts = j->verts + 2 * (n_max + 1) * (size_t)w;
    int32_t *parent = j->parent + n_max * (size_t)w,
            *seg = j->seg + ((size_t)j->k + 1) * (size_t)w,
            *info = j->info + 4 * (size_t)w;
    uint8_t *sole = j->sole + (size_t)w * (size_t)j->m;
    int m = j->m, n = -1;   /* -1: a tree is to be grown */
    if (a >= 0) {
        n = j->nodes[w];
        if (n == 0 || sole[a]) {
            n = -1;
            xy = me->xy;
            cost = me->cost;
            tick = me->tick;
            parent = me->parent;
            sole = NULL;
        }
        verts = me->verts;
        seg = me->seg;
        info = me->info;
    }
    if (n < 0) {
        n = 0;   /* no tree: the root is blocked */
        if (hold_free(j->x0, j->y0, 0.0, 0, obs, j->kp1, rsum, m, a)) {
            n = navrisk_grow(j->samples, j->budget, j->x0, j->y0, j->y_lo,
                             j->y_hi, j->inv, j->steer, j->k, obs, j->kp1,
                             rsum, m, a, xy, cost, tick, parent, sole);
            j->grew[slot] = 1;
        }
        if (a < 0)
            j->nodes[w] = n;
    }
    j->status[slot] = n < 0 ? -2 : plan_world(
        xy, cost, tick, parent, n, j->goals + 2 * slot, j->tol, j->inv,
        j->step, j->k, obs, j->kp1, rsum, m, a, verts, j->paths + slot * row,
        seg, info);
}

/* A worker: take the phase's items from the shared counter until none
   is left. */
static void *work(void *arg)
{
    struct worker *me = arg;
    struct job *j = me->job;
    for (;;) {
        int i = __atomic_fetch_add(&j->next, 1, __ATOMIC_RELAXED);
        if (i >= j->n_items)
            return NULL;
        if (j->phase == 0)
            plan_item(j, me, i, -1);
        else
            plan_item(j, me, j->items[i] / j->m, j->items[i] % j->m);
    }
}

/* Run the job's phase on up to `workers` workers, the calling thread
   one of them.  The others start here and are joined before this
   returns; one that cannot start leaves its items to the rest. */
static void run_phase(struct job *j, int phase, int n_items,
                      struct worker *ws, int workers)
{
    j->phase = phase;
    j->n_items = n_items;
    j->next = 0;
    if (workers > n_items)
        workers = n_items;
    for (int i = 1; i < workers; i++)
        ws[i].started =
            pthread_create(&ws[i].thread, NULL, work, &ws[i]) == 0;
    work(&ws[0]);
    for (int i = 1; i < workers; i++)
        if (ws[i].started)
            pthread_join(ws[i].thread, NULL);
}

/* Both phases of navrisk_leave_one_out on its job: 0, or the first
   negative status, by world and then actor. */
static int plan_phases(struct job *j, const uint8_t *wanted,
                       uint8_t *regrown, struct worker *ws, int workers)
{
    int m = j->m, n_worlds = j->n_worlds;
    size_t slot = (size_t)m + 1;
    run_phase(j, 0, n_worlds, ws, workers);
    for (int w = 0; w < n_worlds; w++)
        if (j->status[(size_t)w * slot] < 0)
            return j->status[(size_t)w * slot];

    /* phase B's items, the regrowths first */
    int32_t *items = j->items;
    int n_items = 0;
    for (int again = 1; again >= 0; again--)
        for (int w = 0; w < n_worlds; w++)
            for (int a = 0; a < m; a++) {
                int regrow = j->nodes[w] == 0 ||
                             j->sole[(size_t)w * (size_t)m + (size_t)a];
                if (wanted[a] && regrow == again)
                    items[n_items++] = w * m + a;
                regrown[(size_t)w * (size_t)m + (size_t)a] =
                    (uint8_t)(wanted[a] && regrow);
            }
    run_phase(j, 1, n_items, ws, workers);

    int result = 0;
    for (int w = 0; w < n_worlds; w++) {
        int growths = 0;
        for (size_t s = 0; s < slot; s++) {
            int st = j->status[(size_t)w * slot + s];
            if (result == 0 && st < 0 && (s == 0 || wanted[s - 1]))
                result = st;
            growths += j->grew[(size_t)w * slot + s];
        }
        j->info[4 * w + 2] = j->nodes[w];
        j->info[4 * w + 3] = growths;
    }
    return result;
}

/* The worlds of W leave-one-out experiments, as risk.leave_one_out
   documents, on one budget samples (as for navrisk_grow), one set of
   radius sums rsum (m) and one wanted mask (m): for world w, its full
   world among its rows obs[w] of obs (W, m, kp1, 2), with kp1 > k, and
   for each actor a with wanted[a] the world without a, every one grown
   from the root (x0, y0) and selected toward its own goal, goals[w][0]
   for the full world and goals[w][1 + a] without a, of goals (W, m + 1,
   2) (as for navrisk_select).

   The root is checked at tick 0 by hold_free.  Each full world is grown
   once; the world without a reuses its tree unless a was a sole blocker
   of one of its edge checks, and grows its own when it was or when the
   full root is blocked.  Either way that world reads obs[w] in place
   and passes over a (skip = a), visiting the other actors in the order
   a copy of the rows without a would hold them.

   Phase A grows and selects every full world; phase B then plans every
   wanted ablation of every world, the regrowths first, since they take
   longest.  In each phase up to `workers` threads, the calling thread
   one of them, take the items from one shared counter.  Each item
   writes only its own slices of the outputs, and every worker owns its
   work buffers, so the outputs do not depend on the worker count or the
   order the items finish in.

   Writes each planned world's positions to paths (W, m + 1, k + 1, 2),
   row 0 of a world the full world and row 1 + a the world without a,
   and its status (0 no plan, 1 partial, 2 into the goal region) to
   status (W, m + 1); each full path's vertices to verts (W, budget + 2,
   2) and its segment per tick to seg (W, k + 1), with info[w] (W, 4):
   partial, the vertex count, the full tree's node count (0 when the root
   is blocked) and the trees grown for world w; and regrown[w][a] (W, m)
   = 1 when world w without a did not reuse its full tree.  Returns 0, -2
   when memory for the work arrays cannot be had and -3 when a parent
   chain is not a path to the root. */
int navrisk_leave_one_out(const double *samples, int budget, double x0,
                          double y0, double y_lo, double y_hi, double inv,
                          double steer, double tol, double step, int k,
                          const double *obs, int kp1, const double *rsum,
                          int m, int n_worlds, const double *goals,
                          const uint8_t *wanted, double *paths,
                          int32_t *status, double *verts, int32_t *seg,
                          int32_t *info, uint8_t *regrown, int workers)
{
    size_t n_max = (size_t)budget + 1, W = (size_t)n_worlds;
    size_t sole_size = W * (size_t)m, slots = W * ((size_t)m + 1);
    /* no phase has more items than the larger of W and W * m */
    int most = workers < 1 ? 1 : workers;
    if ((size_t)most > W * (size_t)(m > 1 ? m : 1))
        most = (int)(W * (size_t)(m > 1 ? m : 1));
    /* each worker's buffers: a tree, and an ablated selection's vertices
       and segments */
    size_t d_each = 6 * n_max + 2;
    size_t i_each = n_max + (size_t)k + 1;
    /* the full trees, phase B's items and the sole and growth flags */
    double *dtrees = malloc(4 * n_max * W * sizeof(double));
    int32_t *itrees = malloc((n_max * W + W + sole_size) * sizeof(int32_t));
    uint8_t *flags = malloc(sole_size + slots);
    struct worker *ws = malloc((size_t)most * sizeof(struct worker));
    double *dwork = malloc((size_t)most * d_each * sizeof(double));
    int32_t *iwork = malloc((size_t)most * i_each * sizeof(int32_t));
    int result = -2;
    if (dtrees != NULL && itrees != NULL && flags != NULL && ws != NULL &&
        dwork != NULL && iwork != NULL) {
        struct job j = {
            .samples = samples, .obs = obs, .rsum = rsum, .goals = goals,
            .x0 = x0, .y0 = y0, .y_lo = y_lo, .y_hi = y_hi, .inv = inv,
            .steer = steer, .tol = tol, .step = step, .budget = budget,
            .k = k, .kp1 = kp1, .m = m, .n_worlds = n_worlds,
            .paths = paths, .verts = verts, .status = status, .seg = seg,
            .info = info,
            .xy = dtrees, .cost = dtrees + 2 * n_max * W,
            .tick = dtrees + 3 * n_max * W, .parent = itrees,
            .nodes = itrees + n_max * W, .sole = flags,
            .grew = flags + sole_size,
            .items = itrees + n_max * W + W};
        memset(flags, 0, sole_size + slots);
        for (int i = 0; i < most; i++) {
            struct worker *me = &ws[i];
            me->job = &j;
            me->xy = dwork + (size_t)i * d_each;
            me->cost = me->xy + 2 * n_max;
            me->tick = me->cost + n_max;
            me->verts = me->tick + n_max;
            me->parent = iwork + (size_t)i * i_each;
            me->seg = me->parent + n_max;
        }
        result = plan_phases(&j, wanted, regrown, ws, most);
    }
    free(dtrees);
    free(itrees);
    free(flags);
    free(ws);
    free(dwork);
    free(iwork);
    return result;
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

/* PCG64(SeedSequence(entropy, spawn_key)), entropy and spawn_key as for
   seed_pool: state 0, inc = (seed[2:4] << 1) | 1, a step, seed[0:2]
   added, another step, for the seed words generate_state(4, np.uint64) */
static pcg64 pcg_seeded(const uint32_t *run, int n_run,
                        const uint32_t *spawn, int n_spawn)
{
    uint32_t pool[POOL];
    uint64_t seed[4];
    seed_pool(run, n_run, spawn, n_spawn, pool);
    generate_state(pool, seed, 4);
    pcg64 g = {{0, 0}, {seed[2] << 1 | seed[3] >> 63, seed[3] << 1 | 1u}};
    g.state = pcg_step(g.state, g.inc);
    g.state.lo += seed[1];
    g.state.hi += seed[0] + (g.state.lo < seed[1]);
    g.state = pcg_step(g.state, g.inc);
    return g;
}

/* the next uint64 of g: a step, then the XSL-RR output */
static uint64_t next_uint64(pcg64 *g)
{
    g->state = pcg_step(g->state, g->inc);
    uint64_t x = g->state.hi ^ g->state.lo;
    unsigned rot = (unsigned)(g->state.hi >> 58);
    return x >> rot | x << ((64u - rot) & 63u);
}

/* the next double in [0, 1) of Generator(g): the next uint64's top 53
   bits */
static double next_double(pcg64 *g)
{
    return (double)(next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* Generator(PCG64(SeedSequence(entropy))).uniform((x_lo, y_lo), (x_hi,
   y_hi), (budget, 2)) into out (budget, 2), entropy as for seed_pool:
   x then y for each sample, each low + (high - low) * u. */
void navrisk_uniform(const uint32_t *run, int n_run, double x_lo,
                     double y_lo, double x_hi, double y_hi, int budget,
                     double *out)
{
    pcg64 g = pcg_seeded(run, n_run, NULL, 0);
    double x_range = x_hi - x_lo, y_range = y_hi - y_lo;
    for (int s = 0; s < budget; s++) {
        out[2 * s] = x_lo + x_range * next_double(&g);
        out[2 * s + 1] = y_lo + y_range * next_double(&g);
    }
}

/* numpy's Generator.normal: the ziggurat of random_standard_normal, with
   numpy's tables (ki_double, wi_double and fi_double of its
   distributions.c, whose values tests/test_normal_stream.py checks
   against the installed numpy's archive) and its tail constants. */
static const uint64_t ki_double[256] = {
    0xef33d8025ef6aull, 0x0000000000000ull, 0xc08be98fbc6a8ull,
    0xda354fabd8142ull, 0xe51f67ec1eeeaull, 0xeb255e9d3f77eull,
    0xeef4b817ecab9ull, 0xf19470afa44aaull, 0xf37ed61ffcb18ull,
    0xf4f469561255cull, 0xf61a5e41ba396ull, 0xf707a755396a4ull,
    0xf7cb2ec28449aull, 0xf86f10c6357d3ull, 0xf8fa6578325deull,
    0xf9724c74dd0daull, 0xf9da907dbf509ull, 0xfa360f581fa74ull,
    0xfa86fde5b4bf8ull, 0xfacf160d354dcull, 0xfb0fb6718b90full,
    0xfb49f8d5374c6ull, 0xfb7ec2366fe77ull, 0xfbaece9a1e50eull,
    0xfbdab9d040bedull, 0xfc03060ff6c57ull, 0xfc2821037a248ull,
    0xfc4a67ae25bd1ull, 0xfc6a2977aee31ull, 0xfc87aa92896a4ull,
    0xfca325e4bde85ull, 0xfcbcce902231aull, 0xfcd4d12f839c4ull,
    0xfceb54d8fec99ull, 0xfd007bf1dc930ull, 0xfd1464dd6c4e6ull,
    0xfd272a8e2f450ull, 0xfd38e4ff0c91eull, 0xfd49a9990b478ull,
    0xfd598b8920f53ull, 0xfd689c08e99ecull, 0xfd76ea9c8e832ull,
    0xfd848547b08e8ull, 0xfd9178bad2c8cull, 0xfd9dd07a7add2ull,
    0xfda9970105e8cull, 0xfdb4d5dc02e20ull, 0xfdbf95c5bfcd0ull,
    0xfdc9debb99a7dull, 0xfdd3b8118729dull, 0xfddd288342f90ull,
    0xfde6364369f64ull, 0xfdeee708d514eull, 0xfdf7401a6b42eull,
    0xfdff46599ed40ull, 0xfe06fe4bc24f2ull, 0xfe0e6c225a258ull,
    0xfe1593c28b84cull, 0xfe1c78cbc3f99ull, 0xfe231e9db1caaull,
    0xfe29885da1b91ull, 0xfe2fb8fb54186ull, 0xfe35b33558d4aull,
    0xfe3b799d0002aull, 0xfe410e99ead7full, 0xfe46746d47734ull,
    0xfe4bad34c095cull, 0xfe50baed29524ull, 0xfe559f74ebc78ull,
    0xfe5a5c8e41212ull, 0xfe5ef3e138689ull, 0xfe6366fd91078ull,
    0xfe67b75c6d578ull, 0xfe6be661e11aaull, 0xfe6ff55e5f4f2ull,
    0xfe73e5900a702ull, 0xfe77b823e9e39ull, 0xfe7b6e37070a2ull,
    0xfe7f08d774243ull, 0xfe8289053f08cull, 0xfe85efb35173aull,
    0xfe893dc840864ull, 0xfe8c741f0cebcull, 0xfe8f9387d4ef6ull,
    0xfe929cc879b1dull, 0xfe95909d388eaull, 0xfe986fb939aa2ull,
    0xfe9b3ac714866ull, 0xfe9df2694b6d5ull, 0xfea0973abe67cull,
    0xfea329cf166a4ull, 0xfea5aab32952cull, 0xfea81a6d5741aull,
    0xfeaa797de1cf0ull, 0xfeacc85f3d920ull, 0xfeaf07865e63cull,
    0xfeb13762fec13ull, 0xfeb3585fe2a4aull, 0xfeb56ae3162b4ull,
    0xfeb76f4e284faull, 0xfeb965fe62014ull, 0xfebb4f4cf9d7cull,
    0xfebd2b8f449d0ull, 0xfebefb16e2e3eull, 0xfec0be31ebde8ull,
    0xfec2752b15a15ull, 0xfec42049dafd3ull, 0xfec5bfd29f196ull,
    0xfec75406ceef4ull, 0xfec8dd2500cb4ull, 0xfeca5b6911f12ull,
    0xfecbcf0c427feull, 0xfecd38454fb15ull, 0xfece97488c8b3ull,
    0xfecfec47f91b7ull, 0xfed1377358528ull, 0xfed278f844903ull,
    0xfed3b10242f4cull, 0xfed4dfbad586eull, 0xfed605498c3ddull,
    0xfed721d414fe8ull, 0xfed8357e4a982ull, 0xfed9406a42cc8ull,
    0xfeda42b85b704ull, 0xfedb3c8746ab4ull, 0xfedc2df416652ull,
    0xfedd171a46e52ull, 0xfeddf813c8ad3ull, 0xfeded0f909980ull,
    0xfedfa1e0fd414ull, 0xfee06ae124bc4ull, 0xfee12c0d95a06ull,
    0xfee1e579006e0ull, 0xfee29734b6524ull, 0xfee34150ae4bcull,
    0xfee3e3db89b3cull, 0xfee47ee2982f4ull, 0xfee51271db086ull,
    0xfee59e9407f41ull, 0xfee623528b42eull, 0xfee6a0b5897f1ull,
    0xfee716c3e077aull, 0xfee7858327b82ull, 0xfee7ecf7b06baull,
    0xfee84d2484ab2ull, 0xfee8a60b66343ull, 0xfee8f7accc851ull,
    0xfee94207e25daull, 0xfee9851a829eaull, 0xfee9c0e13485cull,
    0xfee9f557273f4ull, 0xfeea22762ccaeull, 0xfeea4836b42acull,
    0xfeea668fc2d71ull, 0xfeea7d76ed6faull, 0xfeea8ce04fa0aull,
    0xfeea94be8333bull, 0xfeea950296410ull, 0xfeea8d9c0075eull,
    0xfeea7e7897654ull, 0xfeea678481d24ull, 0xfeea48aa29e83ull,
    0xfeea21d22e4daull, 0xfee9f2e352024ull, 0xfee9bbc26af2eull,
    0xfee97c524f2e4ull, 0xfee93473c0a3aull, 0xfee8e40557516ull,
    0xfee88ae369c7aull, 0xfee828e7f3dfdull, 0xfee7bdea7b888ull,
    0xfee749bff37ffull, 0xfee6cc3a9bd5eull, 0xfee64529e007eull,
    0xfee5b45a32888ull, 0xfee51994e57b6ull, 0xfee474a0006cfull,
    0xfee3c53e12c50ull, 0xfee30b2e02ad8ull, 0xfee2462ad8205ull,
    0xfee175eb83c5aull, 0xfee09a22a1447ull, 0xfedfb27e349ccull,
    0xfedebea76216cull, 0xfeddbe422047eull, 0xfedcb0ece39d3ull,
    0xfedb964042cf4ull, 0xfeda6dce938c9ull, 0xfed937237e98dull,
    0xfed7f1c38a836ull, 0xfed69d2b9c02bull, 0xfed538d06ae00ull,
    0xfed3c41dea422ull, 0xfed23e76a2fd8ull, 0xfed0a732fe644ull,
    0xfecefda07fe34ull, 0xfecd4100eb7b8ull, 0xfecb708956eb4ull,
    0xfec98b61230c1ull, 0xfec790a0da978ull, 0xfec57f50f31feull,
    0xfec356686c962ull, 0xfec114cb4b335ull, 0xfebeb948e6fd0ull,
    0xfebc429a0b692ull, 0xfeb9af5ee0cdcull, 0xfeb6fe1c98542ull,
    0xfeb42d3ad1f9eull, 0xfeb13b00b2d4bull, 0xfeae2591a02e9ull,
    0xfeaaeae992257ull, 0xfea788d8ee326ull, 0xfea3fcffd73e5ull,
    0xfea044c8dd9f6ull, 0xfe9c5d62f563bull, 0xfe9843ba947a4ull,
    0xfe93f471d4728ull, 0xfe8f6bd76c5d6ull, 0xfe8aa5dc4e8e6ull,
    0xfe859e07ab1eaull, 0xfe804f690a940ull, 0xfe7ab488233c0ull,
    0xfe74c751f6aa5ull, 0xfe6e8102aa202ull, 0xfe67da0b6abd8ull,
    0xfe60c9f38307eull, 0xfe5947338f742ull, 0xfe51470977280ull,
    0xfe48bd436f458ull, 0xfe3f9bffd1e37ull, 0xfe35d35eeb19cull,
    0xfe2b5122fe4feull, 0xfe20003995557ull, 0xfe13c82788314ull,
    0xfe068c4ee67b0ull, 0xfdf82b02b71aaull, 0xfde87c57efeaaull,
    0xfdd7509c63bfdull, 0xfdc46e529bf13ull, 0xfdaf8f82e0282ull,
    0xfd985e1b2ba75ull, 0xfd7e6ef48cf04ull, 0xfd613adbd650bull,
    0xfd40149e2f012ull, 0xfd1a1a7b4c7acull, 0xfcee204761f9eull,
    0xfcba8d85e11b2ull, 0xfc7d26ecd2d22ull, 0xfc32b2f1e22edull,
    0xfbd6581c0b83aull, 0xfb606c4005434ull, 0xfac40582a2874ull,
    0xf9e971e014598ull, 0xf89fa48a41dfcull, 0xf66c5f7f0302cull,
    0xf1a5a4b331c4aull
};

static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51
};

static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10
};

static const double NOR_R = 3.6541528853610087963519472518;
static const double NOR_INV_R = 0.27366123732975827203338247596;

/* the next standard normal draw of Generator(g): of a uint64, the low 8
   bits pick the strip, the next bit the sign and the 52 above it rabs;
   the base strip's rejections go to the tail beyond NOR_R, the others'
   to the wedge test */
static double standard_normal(pcg64 *g)
{
    for (;;) {
        uint64_t r = next_uint64(g);
        int idx = (int)(r & 0xff);
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffull;
        double x = (double)rabs * wi_double[idx];
        if (r & 0x1)
            x = -x;
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                /* 1 - u, so that the log never sees 0 */
                double xx = -NOR_INV_R * log1p(-next_double(g));
                double yy = -log1p(-next_double(g));
                if (yy + yy > xx * xx)
                    return (rabs >> 8) & 0x1 ? -(NOR_R + xx) : NOR_R + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(g) +
            fi_double[idx] < exp(-0.5 * x * x))
            return x;
    }
}

/* an angle wrapped into (-pi, pi], as scenario.wrap_angle wraps it, with
   math.pi's double (M_PI is not C99) */
static double wrap_angle(double a)
{
    const double pi = 0x1.921fb54442d18p+1;
    a = fmod(a, 2.0 * pi);
    if (a > pi)
        a -= 2.0 * pi;
    else if (a <= -pi)
        a += 2.0 * pi;
    return a;
}

/* n draws of Generator(g).normal(0.0, sigma) into out, every stride-th
   entry: 0.0 + sigma * z, which a zero sigma draws too.  Returns 1, with
   the rest undrawn, at a draw that is not finite; 0 otherwise. */
static int normals(pcg64 *g, double sigma, int n, double *out, int stride)
{
    for (int i = 0; i < n; i++) {
        double v = 0.0 + sigma * standard_normal(g);
        if (!isfinite(v))
            return 1;
        out[(size_t)i * stride] = v;
    }
    return 0;
}

/* normals on its own, for the tests (tests/test_normal_stream.py):
   Generator(PCG64(SeedSequence(entropy, spawn_key))).normal(0.0, sigma,
   n) into out, entropy and spawn_key as for seed_pool. */
int navrisk_normal(const uint32_t *run, int n_run, const uint32_t *spawn,
                   int n_spawn, double sigma, int n, double *out)
{
    pcg64 g = pcg_seeded(run, n_run, spawn, n_spawn);
    return normals(&g, sigma, n, out, 1);
}

/* One sampled future of prediction.sample_predictions: the stream
   Generator(PCG64(SeedSequence(entropy, spawn_key))), entropy and
   spawn_key as for seed_pool, draws k accelerations normal(0.0,
   accel_sigma) and then k yaw rates normal(0.0, yaw_sigma), and the
   linear model integrates them from the state (x, y, heading, speed)
   over ticks of dt, with the binary64 expressions of the Python loop it
   replaces (tests/oracles.py, reference_sample_predictions).  Writes the
   k + 1 rows (x, y, heading, speed) into rows, the first the given
   state; each row's noise is drawn into its speed and heading slots
   first.  Returns 1, with rows partly written, when a draw is not finite
   or a position leaves [-bound, bound]; 0 otherwise. */
int navrisk_sample_future(const uint32_t *run, int n_run,
                          const uint32_t *spawn, int n_spawn,
                          double accel_sigma, double yaw_sigma, int k,
                          double x, double y, double heading, double speed,
                          double dt, double bound, double *rows)
{
    pcg64 g = pcg_seeded(run, n_run, spawn, n_spawn);
    if (normals(&g, accel_sigma, k, rows + 7, 4) ||
        normals(&g, yaw_sigma, k, rows + 6, 4))
        return 1;
    rows[0] = x;
    rows[1] = y;
    rows[2] = heading;
    rows[3] = speed;
    for (int i = 1; i <= k; i++) {
        double *row = rows + 4 * i;
        double v = speed + row[3] * dt;
        speed = v > 0.0 ? v : 0.0;   /* max(0.0, v), 0.0 for NaN */
        heading = wrap_angle(heading + row[2] * dt);
        x += speed * dt * cos(heading);
        y += speed * dt * sin(heading);
        row[0] = x;
        row[1] = y;
        row[2] = heading;
        row[3] = speed;
        if (!(fabs(x) <= bound && fabs(y) <= bound))   /* NaN fails too */
            return 1;
    }
    return 0;
}

/* The sums in the order of numpy's pairwise summation, which
   np.add.reduce, np.sum, np.mean and np.var use on a contiguous float64
   array: the displacement sums, of libm's hypot, which numpy's np.hypot
   calls too (CPython's math.hypot is its own algorithm and differs in
   the last bit), plain sums of values, and the KL importance's sum of
   one term per plan class. */

/* Where the terms of a sum come from (term_at): the values a, when b
   and cls are NULL; hypot of the differences of the point arrays a (na
   points) and b (nb points), each holding its last point past its end,
   when b is not; or, when cls is not NULL, a[0], a[1] or a[2] by the
   class cls[i * stride] of plan i: free (-1), row j alone, or any
   other. */
struct terms {
    const double *a, *b;
    long na, nb;
    const int32_t *cls;
    long stride;
    int j;
};

/* Term i of a sum. */
static double term_at(const struct terms *s, long i)
{
    if (s->cls) {
        int32_t c = s->cls[i * s->stride];
        return s->a[c == -1 ? 0 : c == s->j ? 1 : 2];
    }
    if (s->b == NULL)
        return s->a[i];
    const double *p = s->a + 2 * (i < s->na ? i : s->na - 1);
    const double *q = s->b + 2 * (i < s->nb ? i : s->nb - 1);
    return hypot(p[0] - q[0], p[1] - q[1]);
}

/* numpy's pairwise sum of the n terms from term lo: one accumulator from
   0.0 below 8 terms; up to 128, 8 accumulators over the blocks of 8,
   combined pairwise, then the rest one by one; above that, the two
   halves split at a multiple of 8. */
static double pairwise(const struct terms *s, long lo, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += term_at(s, lo + i);
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = term_at(s, lo + j);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += term_at(s, lo + i + j);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += term_at(s, lo + i);
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(s, lo, n2) + pairwise(s, lo + n2, n - n2);
}

/* The sum over i < max(na, nb) of hypot(a_i - b_i) for the (x, y) point
   arrays a (na points) and b (nb points), the shorter holding its last
   point: np.sum(np.hypot(d[:, 0], d[:, 1])) of the padded difference d,
   bit for bit.  0 when either array holds no point. */
double navrisk_hypot_sum(const double *a, int na, const double *b, int nb)
{
    if (na < 1 || nb < 1)
        return 0.0;
    struct terms s = {a, b, na, nb, NULL, 0, 0};
    return pairwise(&s, 0, na > nb ? na : nb);
}

/* np.sum of the n values v, bit for bit; 0.0 for none. */
double navrisk_sum(const double *v, int n)
{
    struct terms s = {v, NULL, n, 0, NULL, 0, 0};
    return n < 1 ? 0.0 : pairwise(&s, 0, n);
}

/* The sum over the n plans u of terms[0] where cls[u * stride] is -1
   (free), terms[1] where it is j (row j alone blocks the plan) and
   terms[2] elsewhere, in numpy's pairwise order: np.sum of the per-plan
   terms, bit for bit; 0.0 for no plan.  cls is one world block's column
   of navrisk_lattice's classes, stride the number of blocks. */
double navrisk_class_sum(const int32_t *cls, int n, int stride, int j,
                         const double *terms)
{
    struct terms s = {terms, NULL, 3, 0, cls, stride, j};
    return n < 1 ? 0.0 : pairwise(&s, 0, n);
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
   positions, rsum (n) radius sums) iff some tick of it overlaps row j
   (the collision rule, overlaps).  Tick 0 is tested
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
                        const double *obs, const double *rsum, int n,
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
    for (int j = 0; j < n && render; j++)
        bits[j] = overlaps(obs[j * kp1 * 2] - ego[0],
                           obs[j * kp1 * 2 + 1] - ego[1], rsum[j]);
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
                for (int i = 0; i < m && !hit; i++)
                    hit = overlaps(o[2 * i] - px[t0 + i],
                                   o[2 * i + 1] - py[t0 + i], rsum[j]);
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
