/*
 * One advancing step of the level-fused CoreTime fixpoint.
 *
 * The compiled counterpart of the numpy rounds in core/multik.py
 * (_FusedMultiK.advance and _drain_scalar): after the caller has
 * advanced the pair pointers past the edges stamped ts - 1, seed the
 * expiring batch's endpoints at every level, then drain a FIFO of
 * (level, vertex) keys with the same operator (k-th smallest of
 * max(ett, neighbour core time), capped at ts_hi), the same seed filter
 * and the same re-scheduling filter.  The least fixpoint does not depend
 * on evaluation order, so the core times left in `ct` equal the numpy
 * path's entry for entry.
 *
 * Keys are level * n + vertex over a row-major (levels, n) int64 core
 * time matrix.  No allocation: the caller sizes every buffer once per
 * build (`inq`, `grown_mask`, `queue` and `grown` hold levels * n
 * entries, `scratch` the maximum degree).  Both masks are all-zero on
 * entry and are left all-zero on return.
 */

#include <stdint.h>

static inline int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }

/* The rank-th smallest of a[0..len) (0-based), permuting a in place. */
static int64_t kth_smallest(int64_t *a, int64_t len, int64_t rank)
{
    int64_t lo = 0, hi = len - 1;
    while (hi - lo > 16) {
        int64_t mid = lo + (hi - lo) / 2;
        int64_t x = a[lo], y = a[mid], z = a[hi];
        int64_t pivot = x < y ? (y < z ? y : (x < z ? z : x))
                              : (x < z ? x : (y < z ? z : y));
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot) i++;
            while (a[j] > pivot) j--;
            if (i <= j) {
                int64_t t = a[i];
                a[i] = a[j];
                a[j] = t;
                i++;
                j--;
            }
        }
        if (rank <= j)
            hi = j;
        else if (rank >= i)
            lo = i;
        else
            return a[rank];
    }
    for (int64_t i = lo + 1; i <= hi; i++) {
        int64_t v = a[i], j = i - 1;
        while (j >= lo && a[j] > v) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = v;
    }
    return a[rank];
}

/*
 * Edges [batch_lo, batch_hi) are the batch stamped ts - 1.  Returns the
 * number of keys written to `grown`: every key whose core time grew
 * during this step, once each, in no particular order.
 */
int64_t repro_fixpoint_step(
    const int64_t *adj_offsets, const int64_t *adj_neighbour,
    const int64_t *edge_u, const int64_t *edge_v, const int64_t *edge_slot_u,
    const int64_t *ett, const int64_t *km1, int64_t *ct,
    int64_t n, int64_t levels, int64_t ts_hi, int64_t inf,
    uint8_t *inq, uint8_t *grown_mask, int64_t *queue, int64_t *scratch,
    int64_t *grown, int64_t batch_lo, int64_t batch_hi)
{
    const int64_t capacity = levels * n;
    int64_t head = 0, size = 0, num_grown = 0;

    /* Seed filter of _WindowState.seeds_after_expire, every level: an
     * endpoint needs re-evaluation only if the expiring pair's available
     * time fed its core time and now strictly grows. */
    for (int64_t lev = 0; lev < levels; lev++) {
        const int64_t base = lev * n;
        for (int64_t eid = batch_lo; eid < batch_hi; eid++) {
            const int64_t ku = base + edge_u[eid], kv = base + edge_v[eid];
            const int64_t cu = ct[ku], cv = ct[kv];
            const int64_t next_time = ett[edge_slot_u[eid]];
            if (cu <= ts_hi && cv <= cu && next_time > cv && !inq[ku]) {
                inq[ku] = 1;
                queue[(head + size++) % capacity] = ku;
            }
            if (cv <= ts_hi && cu <= cv && next_time > cu && !inq[kv]) {
                inq[kv] = 1;
                queue[(head + size++) % capacity] = kv;
            }
        }
    }

    while (size) {
        const int64_t key = queue[head];
        head = head + 1 == capacity ? 0 : head + 1;
        size--;
        inq[key] = 0;
        const int64_t old = ct[key];
        if (old >= inf)
            continue;
        const int64_t lev = key / n;
        const int64_t base = lev * n;
        const int64_t u = key - base;
        const int64_t lo = adj_offsets[u], deg = adj_offsets[u + 1] - lo;
        const int64_t rank = km1[lev];
        int64_t updated = inf;
        if (deg > rank) {
            int64_t candidate;
            if (rank == 0) {
                candidate = INT64_MAX;
                for (int64_t i = 0; i < deg; i++) {
                    int64_t a = max64(ett[lo + i], ct[base + adj_neighbour[lo + i]]);
                    if (a < candidate)
                        candidate = a;
                }
            } else {
                for (int64_t i = 0; i < deg; i++)
                    scratch[i] = max64(ett[lo + i], ct[base + adj_neighbour[lo + i]]);
                candidate = kth_smallest(scratch, deg, rank);
            }
            if (candidate <= ts_hi)
                updated = candidate;
        }
        if (updated <= old)
            continue;
        if (!grown_mask[key]) {
            grown_mask[key] = 1;
            grown[num_grown++] = key;
        }
        ct[key] = updated;
        /* Re-schedule neighbours whose k-th-smallest input may have
         * grown: u's available time was at most their core time before
         * the increase and is above it after (updated is at most inf,
         * which exceeds every core time <= ts_hi). */
        for (int64_t i = 0; i < deg; i++) {
            const int64_t target = base + adj_neighbour[lo + i];
            const int64_t nct = ct[target];
            const int64_t slot_ett = ett[lo + i];
            if (max64(slot_ett, old) <= nct && nct <= ts_hi
                && max64(slot_ett, updated) > nct && !inq[target]) {
                inq[target] = 1;
                queue[(head + size++) % capacity] = target;
            }
        }
    }

    for (int64_t i = 0; i < num_grown; i++)
        grown_mask[grown[i]] = 0;
    return num_grown;
}
