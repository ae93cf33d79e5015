/* The sampling planner's tree growth, called by planner._grow_tree, and
   its endpoint selection, called by planner._select_path.

   Every float is computed by the same binary64 expressions, in the same
   order, as the all-numpy reference growth (tests/oracles.py,
   reference_grow_tree), so the two trees are equal bit for bit, and as
   the Python reference selection (reference_select_endpoint), so the
   two select the same endpoint and positions.  That holds only if the
   compiler keeps each operation as written: no fused multiply-add
   (-ffp-contract=off) and no reassociation (no -ffast-math).
   navrisk/_kernel.py builds this file with those flags. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The actors that the edge p0 -> p1 hits at the integer ticks its
   traversal from tick0 to tick1 covers.  Returns how many, stopping at 2,
   and writes them to found in ascending order.  obs is the (m, kp1, 2)
   array of obstacle positions per tick and r2 the (m,) squared radius
   sums: a squared distance strictly below r2 is a hit, as in
   planner._hits.  The caller keeps 0 <= tick0 and tick1 < kp1. */
int navrisk_edge_blockers(double p0x, double p0y, double p1x, double p1y,
                          double tick0, double tick1, const double *obs,
                          int kp1, const double *r2, int m, int32_t *found)
{
    long j0 = (long)floor(tick0) + 1;   /* first integer tick after tick0 */
    long j1 = (long)floor(tick1);       /* last integer tick <= tick1 */
    double span = tick1 - tick0, ddx = p1x - p0x, ddy = p1y - p0y;
    int count = 0;
    for (int a = 0; a < m; a++) {
        const double *o = obs + (size_t)a * kp1 * 2;
        for (long j = j0; j <= j1; j++) {
            double frac = ((double)j - tick0) / span;
            double dx = o[2 * j] - (p0x + frac * ddx);
            double dx2 = dx * dx;
            /* rounding is monotone and dy * dy >= 0, so the rounded sum is
               never below dx2: dx2 >= r2 is no hit */
            if (dx2 >= r2[a])
                continue;
            double dy = o[2 * j + 1] - (p0y + frac * ddy);
            if (dx2 + dy * dy < r2[a]) {
                found[count++] = a;
                if (count == 2)
                    return count;
                break;
            }
        }
    }
    return count;
}

/* bisect_left: the first position in keys[0:n] whose key is >= v */
static int lower_bound(const double *keys, int n, double v)
{
    int lo = 0, hi = n;
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (keys[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
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
   (sx, sy) pairs, exactly as planner._grow_tree documents; obs, kp1, r2
   and m as for navrisk_edge_blockers, with kp1 > k.  Fills xy (n, 2),
   cost, tick and parent for the n nodes it returns, and sets sole[a]
   when some connect or rewire edge check was blocked by actor a alone.
   Every output array holds budget + 1 entries.  Returns -1 when memory
   for the work arrays cannot be had. */
int navrisk_grow(const double *samples, int budget, double x0, double y0,
                 double y_lo, double y_hi, double inv, double steer, int k,
                 const double *obs, int kp1, const double *r2, int m,
                 double *xy, double *cost, double *tick, int32_t *parent,
                 uint8_t *sole)
{
    size_t n_max = (size_t)budget + 1;
    double *dwork = malloc(3 * n_max * sizeof(double));
    int32_t *iwork = malloc(4 * n_max * sizeof(int32_t));
    if (dwork == NULL || iwork == NULL) {
        free(dwork);
        free(iwork);
        return -1;
    }
    double *xkey = dwork, *nb_d = dwork + n_max, *nb_key = dwork + 2 * n_max;
    int32_t *children = iwork, *xid = iwork + n_max, *nb_i = iwork + 2 * n_max,
            *ord = iwork + 3 * n_max;
    double r = 2.0 * steer, r2_rewire = r * r;
    int32_t found[2];

    xy[0] = x0;
    xy[1] = y0;
    cost[0] = 0.0;
    tick[0] = 0.0;
    parent[0] = -1;
    children[0] = 0;
    xkey[0] = x0;
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
            if (!closer(xkey[j], xy[2 * xid[j] + 1], xid[j], sx, sy, &best,
                        &best_d2))
                break;
        for (int j = p - 1; j >= 0; j--)
            if (!closer(xkey[j], xy[2 * xid[j] + 1], xid[j], sx, sy, &best,
                        &best_d2))
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

        /* the neighbours within 2 * steer, in ascending index */
        int nb = 0;
        for (int i = 0; i < n; i++) {
            double dx = xy[2 * i] - cx;
            double dx2 = dx * dx;
            if (dx2 > r2_rewire)
                continue;
            double dy = xy[2 * i + 1] - cy;
            double d2 = dx2 + dy * dy;
            if (d2 <= r2_rewire) {
                nb_i[nb] = i;
                nb_d[nb] = sqrt(d2);
                nb++;
            }
        }
        if (nb == 0) {
            double dx = nx - cx, dy = ny - cy;
            nb_i[0] = ni;
            nb_d[0] = sqrt(dx * dx + dy * dy);
            nb = 1;
        }

        /* connect through the cheapest neighbour whose edge is clear: a
           stable insertion sort by cost through it, so equal costs keep
           ascending index */
        for (int o = 0; o < nb; o++) {
            double key = cost[nb_i[o]] + nb_d[o];
            int q = o;
            while (q > 0 && nb_key[ord[q - 1]] > key) {
                ord[q] = ord[q - 1];
                q--;
            }
            ord[q] = o;
            nb_key[o] = key;
        }
        int chosen = -1;
        double chosen_d = 0.0;
        for (int q = 0; q < nb; q++) {
            int i = nb_i[ord[q]];
            double d_i = nb_d[ord[q]];
            if (xy[2 * i] > cx + 1e-12)
                continue;
            double nt = tick[i] + d_i * inv;
            if (nt > k)
                continue;
            int hit = navrisk_edge_blockers(xy[2 * i], xy[2 * i + 1], cx, cy,
                                            tick[i], nt, obs, kp1, r2, m,
                                            found);
            if (hit == 1)
                sole[found[0]] = 1;
            if (hit == 0) {
                chosen = i;
                chosen_d = d_i;
                break;
            }
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
        int at = lower_bound(xkey, n, cx);
        memmove(xkey + at + 1, xkey + at, (size_t)(n - at) * sizeof(double));
        memmove(xid + at + 1, xid + at, (size_t)(n - at) * sizeof(int32_t));
        xkey[at] = cx;
        xid[at] = n;

        /* rewire: re-parent cheaper-through-new leaves; leaves only, so no
           arrival-time cascade needs repair */
        for (int o = 0; o < nb; o++) {
            int i = nb_i[o];
            if (i == chosen || children[i] > 0)
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
            int hit = navrisk_edge_blockers(cx, cy, xy[2 * i], xy[2 * i + 1],
                                            t_n, nt, obs, kp1, r2, m, found);
            if (hit == 1)
                sole[found[0]] = 1;
            if (hit == 0) {
                children[parent[i]]--;
                parent[i] = n;
                cost[i] = nc;
                tick[i] = nt;
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
   as navrisk_grow writes them) toward the goal (gx, gy), as
   planner._select_path documents, among obs, kp1, r2 and m as for
   navrisk_edge_blockers, with kp1 > k.  inv is ticks per meter and step
   meters per tick.  Writes the chosen path's vertices (at most n + 1) to
   verts, its positions (k+1, 2) to path and the segment of each tick to
   seg, and info[0] = partial, info[1] = the vertex count.  Returns the
   endpoint's node, -1 when no candidate stays clear, -2 when memory for
   the work arrays cannot be had and -3 when a parent chain is not a
   path to the root. */
int navrisk_select(const double *xy, const double *cost, const double *tick,
                   const int32_t *parent, int n, double gx, double gy,
                   double tol, double inv, double step, int k,
                   const double *obs, int kp1, const double *r2, int m,
                   double *verts, double *path, int32_t *seg, int32_t *info)
{
    double *work = malloc((3 * (size_t)n + 2) * sizeof(double));
    if (work == NULL)
        return -2;
    double *gd = work, *seg_len = work + n, *cum = work + 2 * (size_t)n + 1;
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
                    navrisk_edge_blockers(end_x, end_y, gx, gy, tick[best],
                                          nt, obs, kp1, r2, m, found) == 0 &&
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
