/* navrisk_leave_one_out's worker threads under ThreadSanitizer.

   CI builds this program with _growth.c and -fsanitize=thread (see
   .github/workflows/tier1.yml) and runs it: W worlds of m actors in one
   call, on one worker and on several, several times.  ThreadSanitizer
   reports any data race among the workers and fails the run; the program
   itself fails unless every call returns 0, both the reuse and the
   regrowth of trees ran, and every output of the threaded calls equals
   the one-worker call's byte for byte.  It is C, not Python, so that
   ThreadSanitizer need not be preloaded into an interpreter.

       cc -std=c99 -pthread -ffp-contract=off -g -O1 -fsanitize=thread \
           -o tsan_threads tests/tsan_threads.c src/navrisk/_growth.c -lm
       ./tsan_threads */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int navrisk_leave_one_out(const double *samples, int budget, double x0,
                          double y0, double y_lo, double y_hi, double inv,
                          double steer, double tol, double step, int k,
                          const double *obs, int kp1, const double *rsum,
                          int m, int n_worlds, const double *goals,
                          const uint8_t *wanted, double *paths,
                          int32_t *status, double *verts, int32_t *seg,
                          int32_t *info, uint8_t *regrown, int workers);
void navrisk_uniform(const uint32_t *run, int n_run, double x_lo,
                     double y_lo, double x_hi, double y_hi, int n,
                     double *out);

enum { W = 4, M = 4, K = 30, BUDGET = 300 };

#define LANE 3.5
#define EGO_X 10.0
#define EGO_Y (1.5 * LANE)

/* The outputs of one call. */
struct outputs {
    double paths[W * (M + 1) * (K + 1) * 2];
    int32_t status[W * (M + 1)];
    double verts[W * (BUDGET + 2) * 2];
    int32_t seg[W * (K + 1)];
    int32_t info[W * 4];
    uint8_t regrown[W * M];
};

static double obs[W * M * (K + 1) * 2];
static double samples[2 * BUDGET];
static double goals[W * (M + 1) * 2];

/* World w: a parked actor dead ahead of the ego, the sole blocker of
   many edge checks, and three moving ones, each placed a little
   differently in each world. */
static void make_worlds(void)
{
    for (int w = 0; w < W; w++)
        for (int a = 0; a < M; a++) {
            double x = a == 0 ? 28.0 + 0.5 * w : 18.0 + 9.0 * a + 1.3 * w;
            double y = a == 0 ? EGO_Y : LANE * (0.5 + (a + w) % 3);
            double v = a == 0 ? 0.0 : 2.0 + a + 0.25 * w;
            for (int j = 0; j <= K; j++) {
                double *o = obs + (((size_t)w * M + a) * (K + 1) + j) * 2;
                o[0] = x + v * 0.1 * j;
                o[1] = y;
            }
        }
    for (int i = 0; i < W * (M + 1); i++) {
        goals[2 * i] = EGO_X + 24.0 + 0.5 * (i % (M + 1));
        goals[2 * i + 1] = EGO_Y;
    }
    const uint32_t seed[1] = {7};
    navrisk_uniform(seed, 1, EGO_X, 1.2, EGO_X + 30.0, 3 * LANE - 1.2,
                    BUDGET, samples);
}

static int plan(struct outputs *out, int workers)
{
    static const double rsum[M] = {2.9, 2.9, 2.9, 2.9};
    static const uint8_t wanted[M] = {1, 1, 1, 1};
    memset(out, 0, sizeof *out);
    /* 10 m/s at dt = 0.1: one tick per meter */
    return navrisk_leave_one_out(
        samples, BUDGET, EGO_X, EGO_Y, 1.2, 3 * LANE - 1.2, 1.0, 2.0, 2.0,
        1.0, K, obs, K + 1, rsum, M, W, goals, wanted, out->paths,
        out->status, out->verts, out->seg, out->info, out->regrown, workers);
}

int main(void)
{
    static struct outputs one, many;
    make_worlds();
    if (plan(&one, 1) != 0) {
        fprintf(stderr, "the one-worker call failed\n");
        return 1;
    }
    int regrown = 0;
    for (int i = 0; i < W * M; i++)
        regrown += one.regrown[i];
    if (regrown == 0 || regrown == W * M) {
        fprintf(stderr, "%d of %d ablations regrown: a branch never ran\n",
                regrown, W * M);
        return 1;
    }
    for (int workers = 2; workers <= 8; workers *= 2)
        for (int repeat = 0; repeat < 3; repeat++) {
            if (plan(&many, workers) != 0) {
                fprintf(stderr, "the call on %d workers failed\n", workers);
                return 1;
            }
            if (memcmp(&one, &many, sizeof one) != 0) {
                fprintf(stderr, "%d workers differ from one\n", workers);
                return 1;
            }
        }
    printf("%d worlds of %d actors, %d ablations regrown: the outputs of "
           "2, 4 and 8 workers equal one worker's\n", W, M, regrown);
    return 0;
}
