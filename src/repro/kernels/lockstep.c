/*
 * The c kernel backend's three loops over the scan's records: the
 * Initialize copy, the Phase-1 lock-step traversal and the Phase-3
 * expansion (kernels/backend.py has the calling convention,
 * kernels/clib.py builds and loads this file).
 *
 * Records are reached through the two field views, each a base pointer
 * and a byte stride, so no record layout is assumed.  Record `sink` is
 * the last one; a `next` past the sink is a processor's mark
 * `sink + 1 + proc`.  Every index is checked before it is followed, so
 * no input makes a loop read or write outside its arrays.  A forest's
 * members are passed as tables, one entry per member: its array's
 * address, its size and its first record.
 *
 * Opcodes are OPCODES in kernels/backend.py.  int64 takes all seven and
 * wraps on overflow as numpy does (the library is built with -fwrapv);
 * float64 takes ADD and MUL, built without contraction (-ffp-contract=off)
 * so each result is numpy's, bit for bit.
 *
 * Return codes: 0 done, 1 the structure is not a forest of lists, 2 a
 * bad call (unknown opcode, a block outside the records).
 */

#include <stdint.h>
#include <string.h>

enum { OP_ADD = 0, OP_MUL = 1, OP_MIN = 2, OP_MAX = 3, OP_XOR = 4, OP_AND = 5, OP_OR = 6 };

/* How many processors ahead a Phase-1 step prefetches the record it will
 * step on (docs/kernels.md has the sweep that chose it). */
enum { PREFETCH_AHEAD = 32 };

#if defined(__GNUC__)
#define PREFETCH(p) __builtin_prefetch((p), 1)
#else
#define PREFETCH(p) ((void)(p))
#endif

#define NEXT(i) (*(int64_t *)(next + (i) * next_stride))
#define VALUE(T, i) (*(T *)(value + (i) * value_stride))

#define ADD(x, y) ((x) + (y))
#define MUL(x, y) ((x) * (y))
#define MIN(x, y) ((x) < (y) ? (x) : (y))
#define MAX(x, y) ((x) > (y) ? (x) : (y))
#define XOR(x, y) ((x) ^ (y))
#define AND(x, y) ((x) & (y))
#define OR(x, y) ((x) | (y))

/* Whether every member's block [starts[k], starts[k] + sizes[k]) lies
 * before the sink. */
static int blocks_fit(const int64_t *sizes, const int64_t *starts, int64_t members, int64_t sink)
{
    if (members < 0) return 0;
    for (int64_t k = 0; k < members; k++)
        if (starts[k] < 0 || sizes[k] < 0 || starts[k] > sink - sizes[k]) return 0;
    return 1;
}

/*
 * Initialize: copy member k's nodes, in order, into the records from
 * starts[k], adding starts[k] to each successor, so the forest's lists
 * are the members' own.  One streaming pass: each input word is read
 * once and each record written once.  A successor outside [0, size) of
 * its own member is refused before it is copied: found[0] and found[1]
 * then name the member and the node.  Otherwise found[0] is the count
 * of self-loops, the list tails, and the first `capacity` of their
 * record indices are in `loops`, in record order.  The values are
 * copied as 8-byte words, whatever their type.
 */
int repro_initialize(const int64_t *const *nexts, const char *const *values,
                     const int64_t *sizes, const int64_t *starts, int64_t members, char *next,
                     int64_t next_stride, char *value, int64_t value_stride, int64_t records,
                     int64_t *loops, int64_t capacity, int64_t *found)
{
    const int64_t sink = records - 1;
    int64_t count = 0;
    if (records < 1 || capacity < 0 || !blocks_fit(sizes, starts, members, sink)) return 2;
    for (int64_t k = 0; k < members; k++) {
        const int64_t *src = nexts[k];
        const char *val = values[k];
        const int64_t size = sizes[k], start = starts[k];
        for (int64_t i = 0; i < size; i++) {
            const int64_t succ = src[i];
            if ((uint64_t)succ >= (uint64_t)size) {
                found[0] = k;
                found[1] = i;
                return 1;
            }
            NEXT(start + i) = succ + start;
            memcpy(value + (start + i) * value_stride, val + 8 * i, 8);
            if (succ == i) {
                if (count < capacity) loops[count] = start + i;
                count++;
            }
        }
    }
    found[0] = count;
    return 0;
}

/*
 * Phase 1, step-major: every live processor takes step s before any
 * takes step s + 1, so the loads of one step are independent and stay
 * in flight together, as the C-90's pipelined gathers were.  Before it
 * steps processor k the loop prefetches the record processor
 * k + PREFETCH_AHEAD stands on, so more misses are in flight than the
 * core finds on its own.  A step writes the running exclusive prefix
 * over the node's value and the mark over its `next`, folds the value
 * read and moves on.  A processor on the sink stays there and writes
 * nothing.  One past the sink stands on a mark: it stepped to a node
 * visited before, so it is refused before it reads anything there.
 */
#define PHASE1(T, COMBINE)                                                  \
    {                                                                       \
        for (int64_t s = 0; s < gap; s++) {                                 \
            for (int64_t k = 0; k < live; k++) {                            \
                if (k + PREFETCH_AHEAD < live) {                            \
                    int64_t ahead = vp_next[k + PREFETCH_AHEAD];            \
                    if ((uint64_t)ahead <= (uint64_t)sink)                  \
                        PREFETCH(&NEXT(ahead));                             \
                }                                                           \
                int64_t cur = vp_next[k];                                   \
                if (cur == sink) continue;                                  \
                if ((uint64_t)cur > (uint64_t)sink) return 1;               \
                int64_t succ = NEXT(cur);                                   \
                T acc = vp_sum[k];                                          \
                T v = VALUE(T, cur);                                        \
                VALUE(T, cur) = acc;                                        \
                vp_sum[k] = COMBINE(acc, v);                                \
                NEXT(cur) = sink + 1 + vp_proc[k];                          \
                vp_next[k] = succ;                                          \
            }                                                               \
        }                                                                   \
        return 0;                                                           \
    }

/*
 * Phase 3 over every member, member k's block of sizes[k] records from
 * starts[k] into outs[k] (a member given size 0 is left to the caller):
 * the owner of a record is its mark less `sink + 1`, and the record's
 * scan is `carry[owner] (+) value`.  A record without a mark was
 * reached from no head.
 */
#define PHASE3(T, COMBINE)                                                  \
    {                                                                       \
        for (int64_t k = 0; k < members; k++) {                             \
            T *out = (T *)outs[k];                                          \
            const int64_t start = starts[k], size = sizes[k];               \
            for (int64_t i = 0; i < size; i++) {                            \
                int64_t owner = NEXT(start + i) - (sink + 1);               \
                if ((uint64_t)owner >= (uint64_t)m) return 1;               \
                out[i] = COMBINE(carry[owner], VALUE(T, start + i));        \
            }                                                               \
        }                                                                   \
        return 0;                                                           \
    }

int repro_phase1_i64(char *next, int64_t next_stride, char *value, int64_t value_stride,
                     int64_t records, int64_t *vp_next, int64_t *vp_sum, const int64_t *vp_proc,
                     int64_t live, int64_t gap, int code)
{
    const int64_t sink = records - 1;
    if (records < 1 || live < 0 || gap < 0) return 2;
    switch (code) {
    case OP_ADD: PHASE1(int64_t, ADD)
    case OP_MUL: PHASE1(int64_t, MUL)
    case OP_MIN: PHASE1(int64_t, MIN)
    case OP_MAX: PHASE1(int64_t, MAX)
    case OP_XOR: PHASE1(int64_t, XOR)
    case OP_AND: PHASE1(int64_t, AND)
    case OP_OR: PHASE1(int64_t, OR)
    default: return 2;
    }
}

int repro_phase1_f64(char *next, int64_t next_stride, char *value, int64_t value_stride,
                     int64_t records, int64_t *vp_next, double *vp_sum, const int64_t *vp_proc,
                     int64_t live, int64_t gap, int code)
{
    const int64_t sink = records - 1;
    if (records < 1 || live < 0 || gap < 0) return 2;
    switch (code) {
    case OP_ADD: PHASE1(double, ADD)
    case OP_MUL: PHASE1(double, MUL)
    default: return 2;
    }
}

int repro_phase3_i64(const char *next, int64_t next_stride, const char *value,
                     int64_t value_stride, int64_t records, int64_t *const *outs,
                     const int64_t *sizes, const int64_t *starts, int64_t members,
                     const int64_t *carry, int64_t m, int code)
{
    const int64_t sink = records - 1;
    if (records < 1 || m < 0 || !blocks_fit(sizes, starts, members, sink))
        return 2;
    switch (code) {
    case OP_ADD: PHASE3(int64_t, ADD)
    case OP_MUL: PHASE3(int64_t, MUL)
    case OP_MIN: PHASE3(int64_t, MIN)
    case OP_MAX: PHASE3(int64_t, MAX)
    case OP_XOR: PHASE3(int64_t, XOR)
    case OP_AND: PHASE3(int64_t, AND)
    case OP_OR: PHASE3(int64_t, OR)
    default: return 2;
    }
}

int repro_phase3_f64(const char *next, int64_t next_stride, const char *value,
                     int64_t value_stride, int64_t records, double *const *outs,
                     const int64_t *sizes, const int64_t *starts, int64_t members,
                     const double *carry, int64_t m, int code)
{
    const int64_t sink = records - 1;
    if (records < 1 || m < 0 || !blocks_fit(sizes, starts, members, sink))
        return 2;
    switch (code) {
    case OP_ADD: PHASE3(double, ADD)
    case OP_MUL: PHASE3(double, MUL)
    default: return 2;
    }
}
