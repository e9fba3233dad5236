/*
 * The compiled kernels of the multi-k CoreTime build and the delta-fold.
 *
 * repro_build_pass runs the advancing phase of a level-fused multi-k
 * build (core/multik.py, _FusedMultiK) in one call: for every start time
 * it refreshes the pair pointers of the expiring edge batch, drains the
 * fused fixpoint, harvests the VCT transitions and finalised skyline
 * windows, and emits the windows of the edge batch stamped at that
 * start.  It is the compiled counterpart of _FusedMultiK.step (expiry as
 * _WindowState.expire_start, the fixpoint as the fused rounds of advance
 * and _drain_scalar, then harvest and _emit_batch) and appends the same
 * output rows in the same per-key order, so the assembled indexes are
 * identical entry for entry.
 *
 * repro_splice is the fold's per-segment merge (core/incremental.py,
 * _merge_level): the kept old prefix, an optional inserted row, then the
 * sub-span rows past a per-segment skip.
 *
 * Neither function allocates.  The build pass is resumable: before each
 * start time it checks the output space left against the worst case of
 * one step and, when that is short, returns the start time it stopped
 * at with the lengths it needs; the caller grows the output buffers and
 * calls again from there.
 */

#include <stdint.h>
#include <string.h>

/*
 * One build's arrays and scalars.  The field order is mirrored by
 * native.BuildArgs; every array is int64 except the two masks.
 */
struct repro_build {
    /* compiled graph, read only */
    const int64_t *adj_offsets, *adj_neighbour;
    const int64_t *edge_u, *edge_v, *edge_slot_u, *edge_slot_v;
    const int64_t *time_offset, *pair_times, *slot_times_end;
    const int64_t *inc_offsets, *inc_time, *inc_other, *inc_eid;
    const int64_t *km1; /* per level, k - 1 */
    int64_t n, m, levels, ts_hi, inf, no_time;
    /* advancing state, updated in place; ect is NULL without a skyline */
    int64_t *ptr, *ett, *ct, *ect, *inc_cursor;
    /* scratch: masks and queue hold levels * n entries, scratch the
     * maximum degree, grown levels * n */
    uint8_t *inq, *grown_mask;
    int64_t *queue, *scratch, *grown;
    /* output rows, appended at *_len (updated) up to *_capacity; on an
     * early return *_need is the length the next step may reach */
    int64_t *vct_key, *vct_ts, *vct_ct;
    int64_t *ecs_key, *ecs_t1, *ecs_t2;
    int64_t vct_capacity, ecs_capacity, vct_len, ecs_len, vct_need, ecs_need;
};

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

/* Advance the pair pointer of slot s to the first time >= ts. */
static inline void expire_slot(const struct repro_build *b, int64_t s, int64_t ts)
{
    int64_t p = b->ptr[s];
    const int64_t end = b->slot_times_end[s];
    while (p < end && b->pair_times[p] < ts)
        p++;
    b->ptr[s] = p;
    b->ett[s] = p < end ? b->pair_times[p] : b->no_time;
}

/*
 * The fused fixpoint after edges [batch_lo, batch_hi) (stamped ts - 1)
 * expired.  Seeds the batch's endpoints at every level, then drains a
 * FIFO of level * n + vertex keys with the single-k operator (k-th
 * smallest of max(ett, neighbour core time), capped at ts_hi), its seed
 * filter and its re-scheduling filter.  The least fixpoint does not
 * depend on evaluation order, so the core times left in ct equal the
 * numpy rounds' entry for entry.  Returns the number of keys written to
 * grown: every key whose core time grew, once each, in no particular
 * order.  Both masks are all-zero on entry and on return.
 */
static int64_t fixpoint_step(const struct repro_build *b, int64_t batch_lo, int64_t batch_hi)
{
    const int64_t n = b->n, ts_hi = b->ts_hi, inf = b->inf;
    const int64_t capacity = b->levels * n;
    const int64_t *adj_offsets = b->adj_offsets, *adj_neighbour = b->adj_neighbour;
    const int64_t *ett = b->ett;
    int64_t *ct = b->ct, *queue = b->queue, *scratch = b->scratch, *grown = b->grown;
    uint8_t *inq = b->inq, *grown_mask = b->grown_mask;
    int64_t head = 0, size = 0, num_grown = 0;

    /* Seed filter of _WindowState.seeds_after_expire, every level: an
     * endpoint needs re-evaluation only if the expiring pair's available
     * time fed its core time and now strictly grows. */
    for (int64_t lev = 0; lev < b->levels; lev++) {
        const int64_t base = lev * n;
        for (int64_t eid = batch_lo; eid < batch_hi; eid++) {
            const int64_t ku = base + b->edge_u[eid], kv = base + b->edge_v[eid];
            const int64_t cu = ct[ku], cv = ct[kv];
            const int64_t next_time = ett[b->edge_slot_u[eid]];
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
        const int64_t rank = b->km1[lev];
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

/*
 * Record the VCT transitions of the grown keys and re-derive the core
 * times of their incident edges stamped in [ts, ts_hi].  An edge whose
 * pending core time lies below the grown vertex's new core time grows
 * (its new value is at least that core time), finalising its pending
 * minimal window at ts - 1 (Lemma 2).  The new value is the maximum of
 * both endpoints' final core times and the edge time, so the edge's
 * other endpoint, if it grew too, fails the same test: each (level,
 * edge) finalises at most once per step.
 */
static void harvest(struct repro_build *b, int64_t ts, int64_t num_grown)
{
    const int64_t n = b->n, m = b->m, ts_hi = b->ts_hi;
    const int64_t *inc_time = b->inc_time;
    int64_t *ct = b->ct, *ect = b->ect;
    for (int64_t i = 0; i < num_grown; i++) {
        const int64_t key = b->grown[i];
        const int64_t new_ct = ct[key];
        const int64_t row = b->vct_len++;
        b->vct_key[row] = key;
        b->vct_ts[row] = ts;
        b->vct_ct[row] = new_ct;
        if (!ect)
            continue;
        const int64_t lev = key / n, v = key - lev * n;
        const int64_t end = b->inc_offsets[v + 1];
        /* The per-vertex cursor only moves forward: starts are visited
         * in ascending order. */
        int64_t j = b->inc_cursor[v];
        while (j < end && inc_time[j] < ts)
            j++;
        b->inc_cursor[v] = j;
        for (; j < end && inc_time[j] <= ts_hi; j++) {
            const int64_t edge_key = lev * m + b->inc_eid[j];
            const int64_t old_ect = ect[edge_key];
            if (old_ect >= new_ct)
                continue;
            if (old_ect <= ts_hi) {
                const int64_t out = b->ecs_len++;
                b->ecs_key[out] = edge_key;
                b->ecs_t1[out] = ts - 1;
                b->ecs_t2[out] = old_ect;
            }
            ect[edge_key] = max64(max64(ct[lev * n + b->inc_other[j]], inc_time[j]), new_ct);
        }
    }
}

/* Emit (ts, ect) at every level for the edge batch stamped ts. */
static void emit_batch(struct repro_build *b, int64_t ts)
{
    const int64_t lo = b->time_offset[ts], hi = b->time_offset[ts + 1];
    for (int64_t lev = 0; lev < b->levels; lev++) {
        for (int64_t eid = lo; eid < hi; eid++) {
            const int64_t edge_key = lev * b->m + eid;
            const int64_t value = b->ect[edge_key];
            if (value <= b->ts_hi) {
                const int64_t out = b->ecs_len++;
                b->ecs_key[out] = edge_key;
                b->ecs_t1[out] = ts;
                b->ecs_t2[out] = value;
            }
        }
    }
}

/*
 * Move every level's start from ts_from - 1 up to ts_hi.  Returns
 * ts_hi + 1 when done, or the start time it stopped before when the
 * output space left could not hold one more step's worst case (levels *
 * n VCT rows, and levels times the edges stamped in [ts, ts_hi] plus
 * those stamped ts skyline rows), with vct_need / ecs_need set.
 */
int64_t repro_build_pass(struct repro_build *b, int64_t ts_from)
{
    const int64_t ts_hi = b->ts_hi, window_end = b->time_offset[ts_hi + 1];
    for (int64_t ts = ts_from; ts <= ts_hi; ts++) {
        const int64_t batch_lo = b->time_offset[ts - 1], batch_hi = b->time_offset[ts];
        const int64_t batch_next = b->time_offset[ts + 1];
        b->vct_need = b->vct_len + b->levels * b->n;
        b->ecs_need = b->ect
            ? b->ecs_len + b->levels * (window_end - batch_hi + batch_next - batch_hi)
            : 0;
        if (b->vct_need > b->vct_capacity || b->ecs_need > b->ecs_capacity)
            return ts;
        for (int64_t eid = batch_lo; eid < batch_hi; eid++) {
            expire_slot(b, b->edge_slot_u[eid], ts);
            expire_slot(b, b->edge_slot_v[eid], ts);
        }
        if (batch_lo < batch_hi)
            harvest(b, ts, fixpoint_step(b, batch_lo, batch_hi));
        if (b->ect)
            emit_batch(b, ts);
    }
    return ts_hi + 1;
}

/*
 * The fold's merge of one level's old and sub-span arrays, per segment
 * i < segments: the first keep[i] old rows (segments below old_segments
 * only), then (ins_a[i], ins_b[i]) when ins_a[i] >= 0, then the
 * sub-span rows past the first skip[i] (skip may be NULL: none).  The
 * caller sizes out_a / out_b from out_off, the prefix sums of those
 * counts.
 */
void repro_splice(
    int64_t segments, int64_t old_segments,
    const int64_t *old_off, const int64_t *keep, const int64_t *old_a, const int64_t *old_b,
    const int64_t *ins_a, const int64_t *ins_b,
    const int64_t *sub_off, const int64_t *skip, const int64_t *sub_a, const int64_t *sub_b,
    const int64_t *out_off, int64_t *out_a, int64_t *out_b)
{
    for (int64_t i = 0; i < segments; i++) {
        int64_t at = out_off[i];
        if (i < old_segments && keep[i]) {
            const size_t bytes = (size_t)keep[i] * sizeof(int64_t);
            memcpy(out_a + at, old_a + old_off[i], bytes);
            memcpy(out_b + at, old_b + old_off[i], bytes);
            at += keep[i];
        }
        if (ins_a[i] >= 0) {
            out_a[at] = ins_a[i];
            out_b[at] = ins_b[i];
            at++;
        }
        const int64_t lo = sub_off[i] + (skip ? skip[i] : 0), count = sub_off[i + 1] - lo;
        if (count > 0) {
            memcpy(out_a + at, sub_a + lo, (size_t)count * sizeof(int64_t));
            memcpy(out_b + at, sub_b + lo, (size_t)count * sizeof(int64_t));
        }
    }
}
