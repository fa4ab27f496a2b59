/*
 * The c kernel backend's two loops: the Phase-1 lock-step traversal and
 * the Phase-3 expansion, over the scan's records (kernels/backend.py has
 * the calling convention, kernels/clib.py builds and loads this file).
 *
 * Records are reached through the two field views, each a base pointer
 * and a byte stride, so no record layout is assumed.  Record `sink` is
 * the last one; a `next` past the sink is a processor's mark
 * `sink + 1 + proc`.  Every index is checked before it is followed, so
 * no input makes a loop read or write outside its arrays.
 *
 * Opcodes are those of kernels/pairs.py.  int64 takes all seven and
 * wraps on overflow as numpy does (the library is built with -fwrapv);
 * float64 takes ADD and MUL, built without contraction (-ffp-contract=off)
 * so each result is numpy's, bit for bit.
 *
 * Return codes: 0 done, 1 the structure is not a forest of lists, 2 a
 * bad call (unknown opcode, a block outside the records).
 */

#include <stdint.h>

enum { OP_ADD = 0, OP_MUL = 1, OP_MIN = 2, OP_MAX = 3, OP_XOR = 4, OP_AND = 5, OP_OR = 6 };

#define NEXT(i) (*(int64_t *)(next + (i) * next_stride))
#define VALUE(T, i) (*(T *)(value + (i) * value_stride))

#define ADD(x, y) ((x) + (y))
#define MUL(x, y) ((x) * (y))
#define MIN(x, y) ((x) < (y) ? (x) : (y))
#define MAX(x, y) ((x) > (y) ? (x) : (y))
#define XOR(x, y) ((x) ^ (y))
#define AND(x, y) ((x) & (y))
#define OR(x, y) ((x) | (y))

/*
 * Phase 1, step-major: every live processor takes step s before any
 * takes step s + 1, so the loads of one step are independent and stay
 * in flight together, as the C-90's pipelined gathers were.  A step
 * writes the running exclusive prefix over the node's value and the
 * mark over its `next`, folds the value read and moves on.  A
 * processor on the sink stays there and writes nothing.  One past the
 * sink stands on a mark: it stepped to a node visited before, so it is
 * refused before it reads anything there.
 */
#define PHASE1(T, COMBINE)                                                  \
    {                                                                       \
        for (int64_t s = 0; s < gap; s++) {                                 \
            for (int64_t k = 0; k < live; k++) {                            \
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
 * Phase 3 over one member's block of `size` records from `start`: the
 * owner of a record is its mark less `sink + 1`, and the record's scan
 * is `carry[owner] (+) value`.  A record without a mark was reached
 * from no head.
 */
#define PHASE3(T, COMBINE)                                                  \
    {                                                                       \
        for (int64_t i = 0; i < size; i++) {                                \
            int64_t owner = NEXT(start + i) - (sink + 1);                   \
            if ((uint64_t)owner >= (uint64_t)m) return 1;                   \
            out[i] = COMBINE(carry[owner], VALUE(T, start + i));            \
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
                     int64_t value_stride, int64_t records, int64_t start, int64_t size,
                     const int64_t *carry, int64_t m, int64_t *out, int code)
{
    const int64_t sink = records - 1;
    if (records < 1 || start < 0 || size < 0 || start > sink - size || m < 0) return 2;
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
                     int64_t value_stride, int64_t records, int64_t start, int64_t size,
                     const double *carry, int64_t m, double *out, int code)
{
    const int64_t sink = records - 1;
    if (records < 1 || start < 0 || size < 0 || start > sink - size || m < 0) return 2;
    switch (code) {
    case OP_ADD: PHASE3(double, ADD)
    case OP_MUL: PHASE3(double, MUL)
    default: return 2;
    }
}
