/*
 * The compiled kernels of the CoreTime build, the delta-fold and the
 * columnar enumeration walk.  They are the only implementation of these
 * steps; their oracles are the seed implementations,
 * core/coretime_ref.py (the CoreTime build, Algorithm 2) and
 * core/enumerate_ref.py (the Enum walk, Algorithms 4-5), which the test
 * suites hold them to entry for entry.
 *
 * repro_initial_scan computes the core times at the first start time of
 * a level-fused build (core/multik.py, _FusedMultiK.scan_first_start):
 * the nested peel of the window's k-cores in ascending k, then the
 * decremental end-time scan over shared per-slot live counts.  Its
 * oracle is coretime_ref.core_time_by_rescan_reference, per level.
 *
 * repro_build_pass runs the rest of a level-fused build (core/multik.py,
 * _FusedMultiK.run) in one call.  At the first start time it writes the
 * rows the scan's core times give: the VCT rows at ts_lo, the pending
 * edge core times and the windows of the edge batch stamped ts_lo.  Then,
 * for every later start time, it refreshes the pair pointers of the
 * expiring edge batch, drains the fused fixpoint, harvests the VCT
 * transitions and finalised skyline windows, and emits the windows of
 * the edge batch stamped at that start.  The assembled indexes equal
 * coretime_ref's VCT and skyline entry for entry.  Its loops read only
 * what can change:
 *   - each vertex keeps its live slots (a pair with an edge left in the
 *     window, ett <= ts_hi) as a contiguous prefix of position-indexed
 *     copies of ett and adj_neighbour, partitioned at the first start
 *     and shrunk when a pair's last edge expires.  A dead slot's
 *     availability is at least inf, so it is never the k-th smallest;
 *     the operator and re-scheduling read the prefix only, and a key
 *     with at most k - 1 live slots grows to inf with no selection.  On
 *     perfbench build-cold's graph (HotStream seed 11, 5k edges, ks
 *     {2,4,8}) 1,906,959 of the 4,522,616 slots the operator read before
 *     the prefix were dead;
 *   - every finite key keeps its support, the number of live slots
 *     whose availability max(ett, neighbour core time) is at most its
 *     core time (the "mcd" of k-core maintenance: Sariyuce et al.,
 *     "Streaming algorithms for k-core decomposition", VLDB 2013).  It
 *     is counted at the first start, reset by each evaluation from the
 *     values the operator gathers, and decremented at every exact
 *     crossing: an expiring pair whose next time passes the key's core
 *     time (once per pair and step, however many of its edges the batch
 *     holds) and a neighbour's growth past it.  A key is queued only
 *     when its support falls to k - 1 or below, the one case where the
 *     k-th smallest availability grows, so no evaluation is a no-op.
 *     On that graph the support took the evaluations from 86,814, of
 *     which 25,841 changed nothing, to 59,384, and the slots read from
 *     2,611,188 to 1,803,454;
 *   - the core-time operator counts the availabilities at or below a
 *     key's core time, then steps to the smallest one above it, and
 *     selects the k-th smallest only when neither settles it;
 *   - re-scheduling lists, with no branch, the slots whose availability
 *     the operator left in scratch lies in [old, new core time), and
 *     reads the neighbours' core times of those only;
 *   - the harvest stops at the first incident edge stamped at or past
 *     the new core time, and writes every candidate's row, advancing
 *     the row count by whether the window is final, with no branch.
 * Two rules keep that safe.  A missed decrement leaves a key unqueued
 * whose core time must grow, a wrong answer; an extra one only costs an
 * evaluation, so the operator keeps its "more than k - 1 availabilities
 * at most the old core time: no growth" return.  The harvest's
 * branch-free row write lands one past the last real row, so fits()
 * reserves one spare skyline row.
 * It adds its work (evaluations, fallback selections, harvest steps,
 * slots read) to four counters of struct repro_build.
 *
 * repro_splice is the fold's per-segment merge (core/incremental.py,
 * _merge_level): the kept old prefix, an optional inserted row, then the
 * sub-span rows past a per-segment skip.
 *
 * repro_walk_step is one visited start time of the columnar walk
 * (serve/columnar.py, run_columnar_walk) for a sink that receives the
 * cores: the cut, the activation merge and AS-Output (Algorithm 4) over
 * the end-sorted alive run, O(alive) per visit.  It reports the cores
 * enumerate_ref's linked-list walk reports, in the same order.
 *
 * repro_count_init and repro_count_visits are the walk for a sink that
 * only counts (a CountSink, or a slice router over CountSinks).  The
 * init reads a skyline's start-ordered cut itself: it drops the windows
 * ending after the range and activates each other one from its flat
 * predecessor (Definition 6), so no window slice is materialised.  The
 * alive set is a histogram of window counts per end time, so a visit
 * costs O(changes + width of [e0, top end]) and the per-target counters
 * a slice router would accumulate are two lookups each.
 *
 * repro_render_frames writes the cores of one start time of an emitting
 * walk as NDJSON frames (serve/sinks.py, NDJSONSink, and the daemon's
 * bridge sink): the batch's edge run is rendered to decimal text once,
 * and each core copies its prefix of that text between the frame's
 * fixed parts.  Its oracle is json.dumps of each core.
 *
 * repro_counting_order is the stable counting sort behind the graph
 * compile (graph/csr.py, CompiledGraph), the index assembly
 * (core/multik.py, _FusedMultiK.results), the skyline's start order
 * (core/windows.py, EdgeCoreSkyline._by_start) and the counting walk's
 * activation buckets.
 *
 * repro_crc32_fold is zlib's crc32 by carry-less multiplication, the
 * checksum every store blob carries (store/format.py): the x86
 * PCLMULQDQ folding of Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
 *
 * No function allocates.  The build pass is resumable: before each
 * start time, the first one included, it checks the output space left
 * against the worst case of one step and, when that is short, returns
 * the start time it stopped at with the lengths it needs; the caller
 * grows the output buffers and calls again from there.
 */

#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

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
    int64_t n, m, levels, ts_lo, ts_hi, inf, no_time;
    /* advancing state, updated in place: ct holds the first-start scan's
     * core times on entry, ect (levels * m, NULL without a skyline) is
     * written at the first start */
    int64_t *ptr, *ett, *ct, *ect, *inc_cursor;
    /* the live prefix, written at the first start: vertex u's live slots
     * sit at positions [adj_offsets[u], live_end[u]) of pos_ett and
     * pos_neighbour (one entry per slot); slot_pos and pos_slot map
     * slots and positions to each other */
    int64_t *live_end, *pos_ett, *pos_neighbour, *slot_pos, *pos_slot;
    /* levels * n support counts, written at the first start: key
     * level * n + u's live slots whose availability is at most its
     * core time */
    int64_t *support;
    /* scratch: masks and queue hold levels * n entries, scratch twice
     * the maximum degree, grown levels * n */
    uint8_t *inq, *grown_mask;
    int64_t *queue, *scratch, *grown;
    /* output rows, appended at *_len (updated) up to *_capacity; on an
     * early return *_need is the length the next step may reach */
    int64_t *vct_key, *vct_ts, *vct_ct;
    int64_t *ecs_key, *ecs_t1, *ecs_t2;
    int64_t vct_capacity, ecs_capacity, vct_len, ecs_len, vct_need, ecs_need;
    /* work counts, added to by every call: core-time operator
     * evaluations, those that fell back to kth_smallest, incident
     * entries the harvest visited, and live slots the operator read */
    int64_t evaluations, fallback_selections, harvest_steps, slots_read;
};

static inline int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }

/*
 * Evict the vertices on stack[0..top) from one level's core (alive,
 * degree) and cascade: a live-slot neighbour still alive loses one
 * degree and is pushed when that drops it below k.  Each evicted vertex
 * gets core time te when ct is not NULL.  A vertex is pushed only when
 * its degree crosses k - 1, so the stack never holds more than n
 * entries.
 */
static void peel(const int64_t *adj_offsets, const int64_t *adj_neighbour,
                 const int64_t *live, int64_t k, int64_t *degree, uint8_t *alive,
                 int64_t *stack, int64_t top, int64_t *ct, int64_t te)
{
    while (top) {
        const int64_t w = stack[--top];
        if (ct) {
            if (!alive[w])
                continue;
            ct[w] = te;
        }
        alive[w] = 0;
        for (int64_t s = adj_offsets[w]; s < adj_offsets[w + 1]; s++) {
            if (!live[s])
                continue;
            const int64_t x = adj_neighbour[s];
            if (alive[x] && --degree[x] == k - 1)
                stack[top++] = x;
        }
    }
}

/*
 * The core times at start ts_lo of every level over the window [ts_lo,
 * ts_hi], each row what coretime_ref.core_time_by_rescan_reference
 * gives for its k.
 * ks holds the levels' k values, ascending.  live (one entry per
 * adjacency slot), degree and alive (levels * n each) and stack (n) are
 * scratch.  Row lev of ct (levels * n) must hold inf on entry; a vertex
 * in the level's k-core of G[ts_lo, ts_hi] gets the end time whose
 * removal evicts it, or ts_lo if it survives to the end.
 *
 * The peel continues from level to level (the (k+1)-core is nested in
 * the k-core), then the end-time scan deletes the edges stamped te once
 * and cascades per level while both endpoints of a pair that died are
 * still alive there: a vertex evicted while shrinking to te - 1 has
 * core time te.  The k-cores are unique, so the result does not depend
 * on the eviction order.
 */
void repro_initial_scan(
    int64_t n, int64_t levels, int64_t ts_lo, int64_t ts_hi,
    const int64_t *adj_offsets, const int64_t *adj_neighbour,
    const int64_t *edge_u, const int64_t *edge_v,
    const int64_t *edge_slot_u, const int64_t *edge_slot_v,
    const int64_t *time_offset, const int64_t *ks,
    int64_t *live, int64_t *degree, uint8_t *alive, int64_t *stack, int64_t *ct)
{
    const int64_t num_slots = adj_offsets[n];
    if (num_slots)
        memset(live, 0, (size_t)num_slots * sizeof(int64_t));
    for (int64_t eid = time_offset[ts_lo]; eid < time_offset[ts_hi + 1]; eid++) {
        live[edge_slot_u[eid]]++;
        live[edge_slot_v[eid]]++;
    }
    for (int64_t u = 0; u < n; u++) {
        int64_t d = 0;
        for (int64_t s = adj_offsets[u]; s < adj_offsets[u + 1]; s++)
            d += live[s] > 0;
        degree[u] = d;
    }

    /* Nested peel of G[ts_lo, ts_hi]: the first level evicts every
     * vertex below k (the dead ones still discount their neighbours);
     * later levels continue from a copy of the previous level. */
    for (int64_t lev = 0; lev < levels; lev++) {
        const int64_t k = ks[lev];
        int64_t *deg = degree + lev * n;
        uint8_t *al = alive + lev * n;
        int64_t top = 0;
        if (lev) {
            memcpy(deg, deg - n, (size_t)n * sizeof(int64_t));
            memcpy(al, al - n, (size_t)n);
        }
        for (int64_t u = 0; u < n; u++) {
            if (lev == 0)
                al[u] = deg[u] >= k;
            if (deg[u] < k && (lev == 0 || al[u]))
                stack[top++] = u;
        }
        peel(adj_offsets, adj_neighbour, live, k, deg, al, stack, top, NULL, 0);
    }

    for (int64_t te = ts_hi; te > ts_lo; te--) {
        for (int64_t eid = time_offset[te]; eid < time_offset[te + 1]; eid++) {
            const int64_t remaining = --live[edge_slot_u[eid]];
            live[edge_slot_v[eid]]--;
            if (remaining)
                continue;
            const int64_t u = edge_u[eid], v = edge_v[eid];
            for (int64_t lev = 0; lev < levels; lev++) {
                const int64_t k = ks[lev];
                int64_t *deg = degree + lev * n;
                uint8_t *al = alive + lev * n;
                /* Nested cores: dead here means dead at every higher
                 * level too. */
                if (!(al[u] && al[v]))
                    break;
                int64_t top = 0;
                if (--deg[u] == k - 1)
                    stack[top++] = u;
                if (--deg[v] == k - 1)
                    stack[top++] = v;
                peel(adj_offsets, adj_neighbour, live, k, deg, al, stack, top, ct + lev * n, te);
            }
        }
    }
    for (int64_t lev = 0; lev < levels; lev++)
        for (int64_t u = 0; u < n; u++)
            if (alive[lev * n + u])
                ct[lev * n + u] = ts_lo;
}

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

/* Put slot s at position at of the live prefix copies. */
static inline void place(struct repro_build *b, int64_t s, int64_t at, int64_t ett)
{
    b->pos_ett[at] = ett;
    b->pos_neighbour[at] = b->adj_neighbour[s];
    b->pos_slot[at] = s;
    b->slot_pos[s] = at;
}

/*
 * Advance the pair pointer of slot s (of vertex u) to the first time >=
 * ts.  A live slot whose next time lies past ts_hi leaves u's live
 * prefix: the prefix's last slot takes its position.  Returns whether
 * the pointer moved: false for every edge of a pair's batch but the
 * first, whose call already moved it.
 */
static inline int expire_slot(struct repro_build *b, int64_t u, int64_t s, int64_t ts)
{
    const int64_t from = b->ptr[s], end = b->slot_times_end[s];
    int64_t p = from;
    while (p < end && b->pair_times[p] < ts)
        p++;
    if (p == from)
        return 0;
    b->ptr[s] = p;
    const int64_t next = p < end ? b->pair_times[p] : b->no_time;
    b->ett[s] = next;
    const int64_t at = b->slot_pos[s];
    if (next <= b->ts_hi) {
        b->pos_ett[at] = next;
        return 1;
    }
    const int64_t last = --b->live_end[u];
    place(b, b->pos_slot[last], at, b->pos_ett[last]);
    place(b, s, last, next);
    return 1;
}

/* Append key to the FIFO queue[0..capacity) holding *size keys from head. */
static inline void push(int64_t *queue, int64_t capacity, int64_t head, int64_t *size, int64_t key)
{
    int64_t at = head + (*size)++;
    if (at >= capacity)
        at -= capacity;
    queue[at] = key;
}

/*
 * The core-time operator at one key: the rank-th smallest (0-based,
 * rank = k - 1) of the availabilities max(ett, neighbour core time) of
 * its deg live slots, or old, the key's current core time, when that
 * k-th smallest is at most old, or INT64_MAX when deg <= rank (the
 * rank-th smallest is then a dead slot's, at least inf).  Sets *support
 * to the number of availabilities at most the value returned (below
 * INT64_MAX).  Leaves the availabilities in scratch[0..deg), in
 * position order; scratch[deg..2 deg) holds the fallback's copy.
 *
 * Count then step: one pass writes the availabilities, counts those
 * <= old and keeps the smallest one above old.  More than rank of them
 * <= old means the rank-th smallest is <= old: the key does not grow
 * (old is returned).  With exact support counts only a surplus
 * decrement reaches this case, and the return keeps it harmless: a
 * missed decrement would leave a key unevaluated, a surplus one costs
 * this evaluation.
 * Otherwise the rank-th smallest is above old, and it is that smallest
 * one when its ties and the ones <= old cover rank + 1 slots (a second
 * pass counts the ties); only when they do not does kth_smallest select
 * it, on a copy, and a third pass counts the availabilities at most it.
 */
static int64_t core_time_operator(const int64_t *ett, const int64_t *ct_level,
                                  const int64_t *neighbour, int64_t deg, int64_t rank,
                                  int64_t old, int64_t *scratch, int64_t *support,
                                  int64_t *fallbacks)
{
    /* Branch free: step is the smallest availability above old, or
     * INT64_MAX when there is none (then all deg > rank are <= old). */
    int64_t at_most_old = 0, step = INT64_MAX;
    for (int64_t i = 0; i < deg; i++) {
        const int64_t a = max64(ett[i], ct_level[neighbour[i]]);
        scratch[i] = a;
        at_most_old += a <= old;
        const int64_t above = a > old ? a : INT64_MAX;
        step = above < step ? above : step;
    }
    *support = at_most_old;
    if (at_most_old > rank)
        return old;
    if (deg <= rank)
        return INT64_MAX;
    int64_t ties = 0;
    for (int64_t i = 0; i < deg; i++)
        ties += scratch[i] == step;
    *support = at_most_old + ties;
    if (at_most_old + ties > rank)
        return step;
    ++*fallbacks;
    memcpy(scratch + deg, scratch, (size_t)deg * sizeof(int64_t));
    const int64_t selected = kth_smallest(scratch + deg, deg, rank);
    int64_t at_most = 0;
    for (int64_t i = 0; i < deg; i++)
        at_most += scratch[i] <= selected;
    *support = at_most;
    return selected;
}

/* One less support for key; queues it when that leaves at most rank. */
static inline void lose_support(struct repro_build *b, int64_t *queue, int64_t capacity,
                                int64_t head, int64_t *size, int64_t key, int64_t rank)
{
    if (--b->support[key] <= rank && !b->inq[key]) {
        b->inq[key] = 1;
        push(queue, capacity, head, size, key);
    }
}

/*
 * The fused fixpoint as the start moves to ts: edges [batch_lo,
 * batch_hi), stamped ts - 1, expire.  Refreshes the pointers of their
 * pairs and seeds their endpoints at every level, then drains a FIFO of
 * level * n + vertex keys with the core-time operator (capped at
 * ts_hi) and its re-scheduling.  A key is queued only when its support
 * count falls to rank or below, so its evaluation grows it.  The least
 * fixpoint does not depend on evaluation order, so the core times left
 * in ct equal the seed kernel's entry for entry.  Returns the number of
 * keys written to grown: every key whose core time grew, once each, in
 * no particular order.  Both masks are all-zero on entry and on return.
 */
static int64_t fixpoint_step(struct repro_build *b, int64_t ts, int64_t batch_lo, int64_t batch_hi)
{
    const int64_t n = b->n, ts_hi = b->ts_hi, inf = b->inf;
    const int64_t capacity = b->levels * n;
    const int64_t *adj_offsets = b->adj_offsets, *live_end = b->live_end, *km1 = b->km1;
    const int64_t *ett = b->ett, *pos_ett = b->pos_ett, *pos_neighbour = b->pos_neighbour;
    int64_t *ct = b->ct, *support = b->support, *queue = b->queue, *scratch = b->scratch;
    int64_t *grown = b->grown;
    uint8_t *inq = b->inq, *grown_mask = b->grown_mask;
    int64_t head = 0, size = 0, num_grown = 0, evaluations = 0, fallbacks = 0, slots = 0;

    /* Seed (core/coretime.py module docstring), every level: the pair's
     * availability at u was max(ts - 1, cv) and is max(next_time, cv),
     * so it crosses u's core time cu (at least ts - 1) exactly when cv
     * <= cu < next_time.  One crossing per pair: only the first of the
     * batch's edges of a pair moves its pointers. */
    for (int64_t eid = batch_lo; eid < batch_hi; eid++) {
        const int64_t u = b->edge_u[eid], v = b->edge_v[eid], slot = b->edge_slot_u[eid];
        const int moved = expire_slot(b, u, slot, ts);
        expire_slot(b, v, b->edge_slot_v[eid], ts);
        if (!moved)
            continue;
        const int64_t next_time = ett[slot];
        for (int64_t lev = 0; lev < b->levels; lev++) {
            const int64_t ku = lev * n + u, kv = lev * n + v;
            const int64_t cu = ct[ku], cv = ct[kv];
            if (cv <= cu && cu <= ts_hi && next_time > cu)
                lose_support(b, queue, capacity, head, &size, ku, km1[lev]);
            if (cu <= cv && cv <= ts_hi && next_time > cv)
                lose_support(b, queue, capacity, head, &size, kv, km1[lev]);
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
        const int64_t base = lev * n, rank = km1[lev];
        const int64_t u = key - base;
        const int64_t lo = adj_offsets[u], deg = live_end[u] - lo;
        evaluations++;
        slots += deg;
        const int64_t candidate = core_time_operator(
            pos_ett + lo, ct + base, pos_neighbour + lo, deg, rank, old, scratch,
            support + key, &fallbacks);
        if (candidate <= old)
            continue;
        const int64_t updated = candidate <= ts_hi ? candidate : inf;
        if (!grown_mask[key]) {
            grown_mask[key] = 1;
            grown[num_grown++] = key;
        }
        ct[key] = updated;
        /* Re-schedule: a neighbour loses support when u's availability
         * there, max(ett, ct[key]), crosses its core time nct: ett <=
         * nct and old <= nct < updated (updated is at most inf, which
         * exceeds every core time <= ts_hi).  Such a slot's availability
         * in scratch, max(ett, nct), is nct itself and lies in [old,
         * updated); fewer than k availabilities lie below the k-th
         * smallest, so few do.  A branch-free pass lists those slots at
         * scratch + deg (the fallback's copy is spent), and only they
         * read ct[target]; no dead slot (ett > ts_hi) is listed.
         * scratch is current here: only an evaluation reaches this loop,
         * it wrote scratch[0..deg) for this key's live prefix, and no
         * core time but ct[key] changed since. */
        int64_t *listed = scratch + deg, count = 0;
        for (int64_t i = 0; i < deg; i++) {
            const int64_t a = scratch[i];
            listed[count] = i;
            count += (a >= old) & (a < updated);
        }
        for (int64_t j = 0; j < count; j++) {
            const int64_t at = lo + listed[j];
            const int64_t target = base + pos_neighbour[at];
            if (pos_ett[at] <= ct[target])
                lose_support(b, queue, capacity, head, &size, target, rank);
        }
    }

    for (int64_t i = 0; i < num_grown; i++)
        grown_mask[grown[i]] = 0;
    b->evaluations += evaluations;
    b->fallback_selections += fallbacks;
    b->slots_read += slots;
    return num_grown;
}

/*
 * Record the VCT transitions of the grown keys and re-derive the core
 * times of their incident edges stamped in [ts, new core time).  An
 * edge whose pending core time lies below the grown vertex's new core
 * time grows (its new value is at least that core time), finalising its
 * pending minimal window at ts - 1 (Lemma 2).  A pending core time is
 * at least the edge's own time, so the entries stamped at or past the
 * new core time (which is at most inf = ts_hi + 1) cannot grow and are
 * not visited.  The new value is the maximum of both endpoints' final
 * core times and the edge time, so the edge's other endpoint, if it
 * grew too, fails the same test: each (level, edge) finalises at most
 * once per step.
 */
static void harvest(struct repro_build *b, int64_t ts, int64_t num_grown)
{
    const int64_t n = b->n, m = b->m, ts_hi = b->ts_hi;
    const int64_t *inc_time = b->inc_time, *inc_eid = b->inc_eid, *inc_other = b->inc_other;
    int64_t *ct = b->ct, *ect = b->ect;
    int64_t *ecs_key = b->ecs_key, *ecs_t1 = b->ecs_t1, *ecs_t2 = b->ecs_t2;
    int64_t steps = 0, ecs_len = b->ecs_len;
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
        const int64_t *ct_level = ct + lev * n;
        int64_t *ect_level = ect + lev * m;
        /* The per-vertex cursor only moves forward: starts are visited
         * in ascending order. */
        int64_t j = b->inc_cursor[v];
        while (j < end && inc_time[j] < ts)
            j++;
        b->inc_cursor[v] = j;
        const int64_t first = j;
        /* Branch free: every candidate's row is written at ecs_len,
         * which only a growing pending core time inside the window
         * advances past (so fits() keeps one spare row), and a pending
         * core time that does not grow is written back unchanged. */
        for (; j < end && inc_time[j] < new_ct; j++) {
            const int64_t eid = inc_eid[j];
            const int64_t old_ect = ect_level[eid];
            const int64_t grows = old_ect < new_ct;
            ecs_key[ecs_len] = lev * m + eid;
            ecs_t1[ecs_len] = ts - 1;
            ecs_t2[ecs_len] = old_ect;
            ecs_len += grows & (old_ect <= ts_hi);
            const int64_t value = max64(max64(ct_level[inc_other[j]], inc_time[j]), new_ct);
            ect_level[eid] = grows ? value : old_ect;
        }
        steps += j - first;
    }
    b->ecs_len = ecs_len;
    b->harvest_steps += steps;
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
 * The rows of the first start time, from the first-start scan's core
 * times in ct: lays out the live prefixes (live means ett <= ts_hi),
 * counts every key's support, appends a VCT row (key, ts_lo, ct) per
 * key with a finite core time in key order, sets every (level, edge)
 * pending core time (the maximum of the endpoints' core times and the
 * edge time inside the window, inf outside it) and emits the batch
 * stamped ts_lo, whose edges leave the window as soon as the start
 * advances.
 */
static void first_start(struct repro_build *b)
{
    const int64_t n = b->n, m = b->m, ts_lo = b->ts_lo, ts_hi = b->ts_hi, inf = b->inf;
    for (int64_t u = 0; u < n; u++) {
        const int64_t lo = b->adj_offsets[u], hi = b->adj_offsets[u + 1];
        int64_t live = lo, dead = hi;
        for (int64_t s = lo; s < hi; s++)
            place(b, s, b->ett[s] <= ts_hi ? live++ : --dead, b->ett[s]);
        b->live_end[u] = live;
    }
    for (int64_t lev = 0; lev < b->levels; lev++) {
        const int64_t *ct = b->ct + lev * n;
        for (int64_t u = 0; u < n; u++) {
            int64_t at_most = 0;
            for (int64_t at = b->adj_offsets[u]; at < b->live_end[u]; at++)
                at_most += max64(b->pos_ett[at], ct[b->pos_neighbour[at]]) <= ct[u];
            b->support[lev * n + u] = at_most;
        }
    }
    for (int64_t key = 0; key < b->levels * n; key++) {
        if (b->ct[key] < inf) {
            const int64_t row = b->vct_len++;
            b->vct_key[row] = key;
            b->vct_ts[row] = ts_lo;
            b->vct_ct[row] = b->ct[key];
        }
    }
    if (!b->ect)
        return;
    for (int64_t lev = 0; lev < b->levels; lev++) {
        const int64_t *ct = b->ct + lev * n;
        int64_t *ect = b->ect + lev * m;
        for (int64_t eid = 0; eid < m; eid++)
            ect[eid] = inf;
        for (int64_t t = ts_lo; t <= ts_hi; t++)
            for (int64_t eid = b->time_offset[t]; eid < b->time_offset[t + 1]; eid++)
                ect[eid] = max64(max64(ct[b->edge_u[eid]], ct[b->edge_v[eid]]), t);
    }
    emit_batch(b, ts_lo);
}

/*
 * Whether vct_rows and ecs_rows more output rows fit; sets vct_need and
 * ecs_need to the lengths they take, the skyline's with the spare row
 * the harvest's branch-free write may land on.
 */
static int fits(struct repro_build *b, int64_t vct_rows, int64_t ecs_rows)
{
    b->vct_need = b->vct_len + vct_rows;
    b->ecs_need = b->ect ? b->ecs_len + ecs_rows + 1 : 0;
    return b->vct_need <= b->vct_capacity && b->ecs_need <= b->ecs_capacity;
}

/*
 * Write the first start's rows when ts_from is ts_lo, then move every
 * level's start from ts_from - 1 up to ts_hi.  Returns ts_hi + 1 when
 * done, or the start time it stopped before when the output space left
 * could not hold one more step's worst case, with vct_need / ecs_need
 * set: levels * n VCT rows, and levels times the edges stamped ts_lo
 * skyline rows at the first start, the edges stamped in [ts, ts_hi]
 * plus those stamped ts at a later one, and one spare skyline row.
 */
int64_t repro_build_pass(struct repro_build *b, int64_t ts_from)
{
    const int64_t levels = b->levels, ts_hi = b->ts_hi;
    const int64_t *time_offset = b->time_offset, window_end = time_offset[ts_hi + 1];
    int64_t ts = ts_from;
    if (ts == b->ts_lo) {
        if (!fits(b, levels * b->n, levels * (time_offset[ts + 1] - time_offset[ts])))
            return ts;
        first_start(b);
        ts++;
    }
    for (; ts <= ts_hi; ts++) {
        const int64_t batch_lo = time_offset[ts - 1], batch_hi = time_offset[ts];
        const int64_t batch_next = time_offset[ts + 1];
        if (!fits(b, levels * b->n, levels * (window_end - batch_hi + batch_next - batch_hi)))
            return ts;
        if (batch_lo < batch_hi)
            harvest(b, ts, fixpoint_step(b, ts, batch_lo, batch_hi));
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

/*
 * One columnar walk's arrays and state.  The field order is mirrored by
 * native.WalkArgs; every array is int64.
 */
struct repro_walk {
    /* the window slice, read only, and its splice order: ascending by
     * the visit each window activates at, then end, then activation */
    const int64_t *eid, *start, *end, *active, *order;
    int64_t size;
    /* the alive set L_ts, sorted by end: ping-pong buffer sets of size
     * entries, alive entries in set cur */
    int64_t *end_0, *start_0, *eid_0, *end_1, *start_1, *eid_1;
    int64_t cur, alive, next;
    /* one step's cores: boundary ends and prefix lengths (size entries
     * each) */
    int64_t *out_end, *out_len;
};

/*
 * Move the walk to start time t and report its cores; returns how many.
 * The windows whose start lies before t expire (they started at the
 * previous visited start time: no window starts in between), and the
 * windows activating in (previous, t] -- the next run of the splice
 * order -- merge in, ahead of alive entries with the same end (as the
 * oracle's roving cursor inserts them).  The first alive entry
 * starting at t flips the valid flag (Lemma 6); every end-group
 * boundary from there on is one core, a prefix of the alive run.
 */
int64_t repro_walk_step(struct repro_walk *w, int64_t t)
{
    const int64_t *order = w->order;
    const int64_t cur = w->cur, alive = w->alive;
    const int64_t *src_end = cur ? w->end_1 : w->end_0;
    const int64_t *src_start = cur ? w->start_1 : w->start_0;
    const int64_t *src_eid = cur ? w->eid_1 : w->eid_0;
    int64_t *dst_end = cur ? w->end_0 : w->end_1;
    int64_t *dst_start = cur ? w->start_0 : w->start_1;
    int64_t *dst_eid = cur ? w->eid_0 : w->eid_1;
    int64_t in_lo = w->next, in_hi = in_lo;
    while (in_hi < w->size && w->active[order[in_hi]] <= t)
        in_hi++;
    w->next = in_hi;

    int64_t i = 0, j = in_lo, len = 0, p0 = -1;
    for (;;) {
        while (i < alive && src_start[i] < t)
            i++;
        const int has_old = i < alive, has_new = j < in_hi;
        if (!has_old && !has_new)
            break;
        if (has_new && (!has_old || w->end[order[j]] <= src_end[i])) {
            const int64_t row = order[j++];
            dst_end[len] = w->end[row];
            dst_start[len] = w->start[row];
            dst_eid[len] = w->eid[row];
        } else {
            dst_end[len] = src_end[i];
            dst_start[len] = src_start[i];
            dst_eid[len] = src_eid[i];
            i++;
        }
        if (p0 < 0 && dst_start[len] == t)
            p0 = len;
        len++;
    }
    w->cur = !cur;
    w->alive = len;
    if (p0 < 0)
        return 0;

    int64_t cores = 0;
    for (int64_t p = p0; p < len; p++) {
        if (p + 1 < len && dst_end[p + 1] == dst_end[p])
            continue;
        w->out_end[cores] = dst_end[p];
        w->out_len[cores] = p + 1;
        cores++;
    }
    return cores;
}

/*
 * One counting walk's arrays and state.  The field order is mirrored by
 * native.CountArgs; every array is int64 except the first-window flags.
 * The walk reads its windows straight from a skyline: the cut
 * order[lo:hi] of the skyline's start order lists the windows starting
 * in [ts, te], ascending by start, and those ending by te are counted.
 * Times are domain positions in [0, width): a time's offset from base,
 * or, when ranks is not NULL (a cut far wider in time than it is long),
 * the number of ranks, the sorted distinct times of the counted
 * windows, below it.
 */
struct repro_count {
    /* the skyline, read only: per window its start and end and whether
     * it is its edge's first (edges' windows are flat runs, ascending),
     * and the start order (windows entries) */
    const int64_t *start, *end, *order;
    const uint8_t *first;
    int64_t windows, lo, hi, ts, te;
    const int64_t *ranks;
    int64_t base, width;
    /* the counted windows' activation positions (hi - lo entries), their
     * ends bucketed by activation and by start (hi - lo entries each;
     * width + 1 offsets each), the alive windows per end (width
     * entries), and per end e of one visit the cores and edge total of
     * the cores ending after e (width entries each) */
    int64_t *keys, *by_active, *active_offsets, *by_start, *start_offsets;
    int64_t *alive_at, *cores_after, *edges_after;
    /* walk state: the next position to look for a visit at, the last
     * visit (-1 before the first), the alive windows and their top end */
    int64_t next, prev, alive, top;
    /* counting targets in domain positions, sorted by ts: activated up
     * to position, the unretired ones listed in target_active;
     * accumulated into target_num / target_edges, and over every core
     * into num_results / total_edges */
    const int64_t *target_ts, *target_te;
    int64_t *target_num, *target_edges, *target_active;
    int64_t targets, position, num_active, num_results, total_edges;
};

/*
 * The stable counting order of keys[0..len), each in [0, bound): order
 * receives the positions 0..len sorted by key, equal keys in position
 * order (numpy's argsort(kind="stable")), and offsets (bound + 1
 * entries) where each key's run starts, then len.  O(len + bound).
 * Returns 0, or -1 with order unwritten when a key lies outside [0,
 * bound).
 */
int64_t repro_counting_order(int64_t len, const int64_t *keys, int64_t bound,
                             int64_t *offsets, int64_t *order)
{
    memset(offsets, 0, (size_t)(bound + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < len; i++) {
        if (keys[i] < 0 || keys[i] >= bound)
            return -1;
        offsets[keys[i] + 1]++;
    }
    for (int64_t key = 0; key < bound; key++)
        offsets[key + 1] += offsets[key];
    for (int64_t i = 0; i < len; i++)
        order[offsets[keys[i]]++] = i;
    /* offsets[key] has moved to the end of its run: shift back. */
    memmove(offsets + 1, offsets, (size_t)bound * sizeof(int64_t));
    offsets[0] = 0;
    return 0;
}

/* The domain position of time t: its offset, or the ranks below it. */
static inline int64_t position(const struct repro_count *c, int64_t t)
{
    if (!c->ranks)
        return t - c->base;
    int64_t lo = 0, hi = c->width;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (c->ranks[mid] < t)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/*
 * Prepare a counting walk over the cut: drop the windows ending after
 * te and activate the rest (Definition 6).  An edge's windows inside
 * [ts, te] are one contiguous flat run, so a window activates at ts
 * when it is its edge's first or its flat predecessor starts before ts,
 * else one past that predecessor's start: max(ts, predecessor's start
 * + 1).  The cut's windows lie scattered over the skyline, so the
 * windows ending by te are selected without branching on their ends (a
 * branch on each read would serialise the reads' cache misses).  The
 * cut is in start order, so the selected windows' ends land bucketed
 * by start as they come; one counting sort buckets them by activation.
 * Clears the histogram.  Returns the number of visits (the distinct
 * start times), or -1 unless 0 <= lo <= hi <= windows and every counted
 * window has ts <= activation <= start <= end, inside the domain, and
 * starts no earlier than the one before it.
 */
int64_t repro_count_init(struct repro_count *c)
{
    const int64_t *start = c->start, *end = c->end;
    const int64_t ts = c->ts, te = c->te, width = c->width;
    if (c->lo < 0 || c->lo > c->hi || c->hi > c->windows)
        return -1;
    /* the selected windows and their ends, overwritten below by their
     * activations and ends as domain positions */
    int64_t *selected = c->keys, *selected_end = c->by_start, size = 0;
    for (int64_t i = c->lo; i < c->hi; i++) {
        const int64_t w = c->order[i];
        if (w < 0 || w >= c->windows)
            return -1;
        const int64_t t2 = end[w];
        selected[size] = w;
        selected_end[size] = t2;
        size += t2 <= te;
    }
    int64_t visits = 0, at = -1; /* start offsets set up to at */
    for (int64_t i = 0; i < size; i++) {
        const int64_t w = selected[i], t1 = start[w], t2 = selected_end[i];
        const int64_t floor = c->first[w] ? ts : start[w - (w > 0)] + 1;
        const int64_t active = floor > ts ? floor : ts;
        const int64_t s = position(c, t1), e = position(c, t2);
        if (t1 < ts || t1 > t2 || active > t1 || s < at || e >= width)
            return -1;
        if (s > at)
            visits++;
        while (at < s)
            c->start_offsets[++at] = i;
        c->by_start[i] = e;
        c->keys[i] = position(c, active);
    }
    while (at < width)
        c->start_offsets[++at] = size;
    repro_counting_order(size, c->keys, width, c->active_offsets, c->by_active);
    for (int64_t i = 0; i < size; i++)
        c->by_active[i] = c->by_start[c->by_active[i]];
    memset(c->alive_at, 0, (size_t)width * sizeof(int64_t));
    c->next = 0;
    c->prev = -1;
    c->alive = 0;
    c->top = 0;
    return visits;
}

/*
 * Count up to max_visits more visited start times; returns how many ran.
 * The alive set L_ts is a histogram of window counts per end.  At visit
 * t the windows activating in (prev, t] are added and those starting at
 * prev removed: one bucket each.  The cores at t are the distinct alive
 * ends at or above e0, the least end of a window starting at t (Lemma
 * 6), and the core ending at e holds every alive window ending by e.
 * One descending scan from the top end to e0 counts them and records,
 * per end, what lies above it, so each target's count is two lookups at
 * its cut.  O(changes + top - e0 + active targets) per visit.
 */
int64_t repro_count_visits(struct repro_count *c, int64_t max_visits)
{
    const int64_t width = c->width;
    const int64_t *active_offsets = c->active_offsets, *start_offsets = c->start_offsets;
    int64_t *alive_at = c->alive_at;
    int64_t done = 0;
    while (done < max_visits) {
        int64_t t = c->next;
        while (t < width && start_offsets[t + 1] == start_offsets[t])
            t++;
        if (t == width)
            break;
        if (c->prev >= 0)
            for (int64_t i = start_offsets[c->prev]; i < start_offsets[c->prev + 1]; i++) {
                alive_at[c->by_start[i]]--;
                c->alive--;
            }
        for (int64_t i = active_offsets[c->prev + 1]; i < active_offsets[t + 1]; i++) {
            const int64_t e = c->by_active[i];
            alive_at[e]++;
            c->alive++;
            if (e > c->top)
                c->top = e;
        }
        /* the windows starting at t are alive, so the top end is found */
        while (!alive_at[c->top])
            c->top--;
        int64_t e0 = c->top;
        for (int64_t i = start_offsets[t]; i < start_offsets[t + 1]; i++)
            if (c->by_start[i] < e0)
                e0 = c->by_start[i];

        int64_t cores = 0, sum = 0, above = 0;
        for (int64_t e = c->top; e >= e0; e--) {
            c->cores_after[e] = cores;
            c->edges_after[e] = sum;
            if (alive_at[e]) {
                cores++;
                sum += c->alive - above;
                above += alive_at[e];
            }
        }
        c->num_results += cores;
        c->total_edges += sum;

        /* Route like the slice router: activate the targets with ts <=
         * t, retire those with te < t (reported starts only grow), then
         * credit each the cores ending by its te. */
        while (c->position < c->targets && c->target_ts[c->position] <= t)
            c->target_active[c->num_active++] = c->position++;
        int64_t kept = 0;
        for (int64_t a = 0; a < c->num_active; a++) {
            const int64_t idx = c->target_active[a];
            const int64_t te = c->target_te[idx];
            if (te < t)
                continue;
            c->target_active[kept++] = idx;
            if (te >= e0) {
                const int64_t cut = te < c->top ? te : c->top;
                c->target_num[idx] += cores - c->cores_after[cut];
                c->target_edges[idx] += sum - c->edges_after[cut];
            }
        }
        c->num_active = kept;
        c->prev = t;
        c->next = t + 1;
        done++;
    }
    return done;
}

/* The decimal text of v at dst; returns its length (at most 20).  The
 * magnitude is taken unsigned, so INT64_MIN is exact. */
static int64_t put_decimal(char *dst, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    char digits[20];
    int64_t n = 0, len = 0;
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        dst[len++] = '-';
    while (n)
        dst[len++] = digits[--n];
    return len;
}

/* The length put_decimal writes for v. */
static int64_t decimal_width(int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int64_t width = 1 + (v < 0);
    while (u >= 10) {
        u /= 10;
        width++;
    }
    return width;
}

static inline char *put_bytes(char *dst, const char *src, int64_t len)
{
    if (len > 0)
        memcpy(dst, src, (size_t)len);
    return dst + len;
}

#define PUT_LITERAL(dst, literal) put_bytes((dst), (literal), (int64_t)sizeof(literal) - 1)

/*
 * Render one start time's core frames: per core i, prefix, then
 * {"tti": [ts, ends[i]], "num_edges": lens[i], "edge_ids": [...]} (the
 * id list, when edge_ids is set, the first lens[i] ids of eids[0..run)
 * joined by ", "; without it the object closes after num_edges), then
 * closing and a newline -- json.dumps's separators, byte for byte.  The
 * run's decimal text is written once to text (22 bytes per id: 20
 * characters of INT64_MIN and the separator), with stops[j] the end of
 * its first j ids (run + 1 entries); each core copies its prefix of it.
 * Returns the bytes the frames take, written to out only when they fit
 * in capacity, or -1 when edge_ids is set and a length lies outside [0,
 * run].
 */
int64_t repro_render_frames(const char *prefix, int64_t prefix_len,
                            const char *closing, int64_t closing_len, int64_t ts,
                            int64_t cores, const int64_t *ends, const int64_t *lens,
                            int64_t edge_ids, int64_t run, const int64_t *eids,
                            char *text, int64_t *stops, char *out, int64_t capacity)
{
    int64_t longest = 0;
    if (edge_ids) {
        for (int64_t i = 0; i < cores; i++) {
            if (lens[i] < 0 || lens[i] > run)
                return -1;
            longest = max64(longest, lens[i]);
        }
        int64_t at = 0;
        stops[0] = 0;
        for (int64_t j = 0; j < longest; j++) {
            if (j)
                at = PUT_LITERAL(text + at, ", ") - text;
            at += put_decimal(text + at, eids[j]);
            stops[j + 1] = at;
        }
    }
    /* the bytes of a frame but for te, n and the id text */
    const int64_t fixed = prefix_len + (int64_t)sizeof("{\"tti\": [") - 1 + decimal_width(ts)
        + (int64_t)sizeof(", ") - 1 + (int64_t)sizeof("], \"num_edges\": ") - 1
        + (edge_ids ? (int64_t)sizeof(", \"edge_ids\": []") - 1 : 0)
        + (int64_t)sizeof("}") - 1 + closing_len + (int64_t)sizeof("\n") - 1;
    int64_t total = 0;
    for (int64_t i = 0; i < cores; i++)
        total += fixed + decimal_width(ends[i]) + decimal_width(lens[i])
            + (edge_ids ? stops[lens[i]] : 0);
    if (total > capacity)
        return total;

    char ts_text[20];
    const int64_t ts_len = put_decimal(ts_text, ts);
    char *p = out;
    for (int64_t i = 0; i < cores; i++) {
        p = put_bytes(p, prefix, prefix_len);
        p = PUT_LITERAL(p, "{\"tti\": [");
        p = put_bytes(p, ts_text, ts_len);
        p = PUT_LITERAL(p, ", ");
        p += put_decimal(p, ends[i]);
        p = PUT_LITERAL(p, "], \"num_edges\": ");
        p += put_decimal(p, lens[i]);
        if (edge_ids) {
            p = PUT_LITERAL(p, ", \"edge_ids\": [");
            p = put_bytes(p, text, stops[lens[i]]);
            p = PUT_LITERAL(p, "]");
        }
        p = PUT_LITERAL(p, "}");
        p = put_bytes(p, closing, closing_len);
        p = PUT_LITERAL(p, "\n");
    }
    return total;
}

#if defined(__x86_64__) && defined(__GNUC__)

/*
 * The bit-reflected crc32 register of buf[0..len) from the register crc
 * (pre- and post-inversion are the caller's); len is a multiple of 16,
 * at least 64.  Four 128-bit lanes fold 64 bytes per round, then fold
 * into one lane, which is reduced to 64 bits and Barrett-reduced to 32.
 * The constants are the x^n mod P(x) values and the Barrett pair of the
 * paper for zlib's polynomial, bit-reflected.
 */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_fold(const unsigned char *buf, int64_t len, uint32_t crc)
{
    static const uint64_t k1k2[2] __attribute__((aligned(16))) = {0x0154442bd4, 0x01c6e41596};
    static const uint64_t k3k4[2] __attribute__((aligned(16))) = {0x01751997d0, 0x00ccaa009e};
    static const uint64_t k5k0[2] __attribute__((aligned(16))) = {0x0163cd6124, 0x0000000000};
    static const uint64_t poly[2] __attribute__((aligned(16))) = {0x01db710641, 0x01f7011641};
    __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8;

    x1 = _mm_loadu_si128((const __m128i *)(buf + 0x00));
    x2 = _mm_loadu_si128((const __m128i *)(buf + 0x10));
    x3 = _mm_loadu_si128((const __m128i *)(buf + 0x20));
    x4 = _mm_loadu_si128((const __m128i *)(buf + 0x30));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
    x0 = _mm_load_si128((const __m128i *)k1k2);
    for (buf += 64, len -= 64; len >= 64; buf += 64, len -= 64) {
        x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
        x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
        x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
        x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
        x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, x0, 0x11), x5);
        x2 = _mm_xor_si128(_mm_clmulepi64_si128(x2, x0, 0x11), x6);
        x3 = _mm_xor_si128(_mm_clmulepi64_si128(x3, x0, 0x11), x7);
        x4 = _mm_xor_si128(_mm_clmulepi64_si128(x4, x0, 0x11), x8);
        x1 = _mm_xor_si128(x1, _mm_loadu_si128((const __m128i *)(buf + 0x00)));
        x2 = _mm_xor_si128(x2, _mm_loadu_si128((const __m128i *)(buf + 0x10)));
        x3 = _mm_xor_si128(x3, _mm_loadu_si128((const __m128i *)(buf + 0x20)));
        x4 = _mm_xor_si128(x4, _mm_loadu_si128((const __m128i *)(buf + 0x30)));
    }

    /* Fold the four lanes, then any remaining 16-byte blocks, into x1. */
    x0 = _mm_load_si128((const __m128i *)k3k4);
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, x0, 0x11), x2), x5);
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, x0, 0x11), x3), x5);
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, x0, 0x11), x4), x5);
    for (; len >= 16; buf += 16, len -= 16) {
        x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
        x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, _mm_loadu_si128((const __m128i *)buf)), x5);
    }

    /* 128 -> 64 bits. */
    x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
    x3 = _mm_setr_epi32(~0, 0, ~0, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x0 = _mm_loadl_epi64((const __m128i *)k5k0);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, x3);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, x0, 0x00), x2);

    /* Barrett reduction to 32 bits. */
    x0 = _mm_load_si128((const __m128i *)poly);
    x2 = _mm_and_si128(x1, x3);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
    x2 = _mm_and_si128(x2, x3);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return (uint32_t)_mm_extract_epi32(x1, 1);
}

#endif

/*
 * zlib's crc32(crc, buf, done) for the leading done = len - len % 16
 * bytes of buf: the caller continues from the returned value over the
 * len % 16 bytes left.  Returns -1, having read nothing, when len < 64
 * or the CPU (or compiler) lacks carry-less multiplication.
 */
int64_t repro_crc32_fold(int64_t len, const unsigned char *buf, int64_t crc)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (len >= 64 && __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
        return ~crc32_fold(buf, len & ~(int64_t)15, ~(uint32_t)crc) & 0xffffffffu;
#endif
    (void)len;
    (void)buf;
    (void)crc;
    return -1;
}
