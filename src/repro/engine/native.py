"""Native (C, via ctypes) execution backend for the evaluation engine.

The exhaustive packed simulation is numpy-shaped but ufunc-call-bound: a
width-8 multiplier phenotype is ~300 gates of 1024-word bitwise ops, so
per-call dispatch overhead dominates the arithmetic.  This module embeds
a C implementation of the compile/execute/decode pipeline, builds it
once with the system C compiler into a cached shared object, and loads
it through ``ctypes`` (:class:`NativeLib`: argument types and the OpenMP
team size).  The evaluator's per-params runtime is the one caller of the
C functions; it runs them over the same
:class:`~repro.engine.arena.BufferArena` buffers the numpy backend uses.

Everything stays optional: if no compiler is available (or compilation
fails, or ``REPRO_ENGINE=numpy`` is set) callers fall back to the
bit-identical numpy backend.  All arithmetic in C is integer — the
decode's distances and its weighted sums alike — so results match numpy
exactly regardless of optimization flags.

The shared object is cached under ``$REPRO_ENGINE_CACHE`` (default
``~/.cache/repro-engine``) keyed by a digest of the source and compile
flags; concurrent builds (e.g. a process-pool sweep) are safe because
the compiled artifact is moved into place atomically.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

__all__ = ["NativeLib", "native_lib", "native_available", "omp_threads"]

#: Bump when C_SOURCE changes incompatibly (part of the .so cache key).
_ABI_VERSION = 8

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef __AVX2__
#include <immintrin.h>
#endif

/* Words per execution tile: the interpreter runs every op over one tile
   before advancing, so the program's live slot set (live_width * 8 *
   TILE bytes) stays L1-resident across the whole program instead of
   streaming each full-width row through cache once per op.  Tiling only
   reorders independent per-word integer ops, so results are identical
   for any tile size. */
#define ENGINE_TILE_WORDS 128

/* Integers per vector block in the reduced decode's stats row. */
#define ENGINE_STATS 5

/* Widest output bus the decode serves: values and distances are int64,
   and a 62-bit value against a reference with |exact| < 2^62 keeps
   |exact - value| < 2^63. */
#define ENGINE_MAX_BITS 62

/* Opcodes: must match repro.engine.opcodes.OP_NAMES. */

static uint64_t SPREAD[256];

void cgp_init(void) {
    for (int b = 0; b < 256; ++b) {
        uint64_t x = 0;
        for (int k = 0; k < 8; ++k)
            if ((b >> k) & 1) x |= 1ULL << (8 * k);
        SPREAD[b] = x;
    }
}

/* Active-cone sweep + liveness-allocated lowering; mirrors
   compiler.compile_genes_into (both must stay byte-identical).
   scratch_i32 needs ni + 3*nn entries; returns the emitted op count. */
int32_t cgp_compile(const int64_t* genes, int32_t nn, int32_t ni, int32_t no,
                    const int32_t* fn2op, const int32_t* op_arity,
                    int32_t* ops, int32_t* sa, int32_t* sb, int32_t* dst,
                    int32_t* out_slots, uint8_t* needed, int32_t* scratch_i32)
{
    const int64_t* outg = genes + (int64_t)nn * 3;
    int32_t* slot = scratch_i32;            /* ni + nn */
    int32_t* last_use = slot + ni + nn;     /* nn */
    int32_t* free_stack = last_use + nn;    /* nn */

    /* Pass 1: transitive fan-in of the outputs (reverse sweep). */
    memset(needed, 0, (size_t)nn);
    for (int32_t j = 0; j < no; ++j) {
        int64_t o = outg[j];
        if (o >= ni) needed[o - ni] = 1;
    }
    for (int32_t node = nn - 1; node >= 0; --node) {
        if (!needed[node]) continue;
        const int64_t* g = genes + (int64_t)node * 3;
        int32_t ar = op_arity[fn2op[g[2]]];
        if (ar >= 1 && g[0] >= ni) needed[g[0] - ni] = 1;
        if (ar >= 2 && g[1] >= ni) needed[g[1] - ni] = 1;
    }

    /* Pass 2: last consumer (emit index) per node; outputs never die. */
    memset(last_use, 0, (size_t)nn * 4);
    int32_t e = 0;
    for (int32_t node = 0; node < nn; ++node) {
        if (!needed[node]) continue;
        const int64_t* g = genes + (int64_t)node * 3;
        int32_t ar = op_arity[fn2op[g[2]]];
        if (ar >= 1 && g[0] >= ni) last_use[g[0] - ni] = e;
        if (ar >= 2 && g[1] >= ni) last_use[g[1] - ni] = e;
        ++e;
    }
    int32_t n_total = e;
    for (int32_t j = 0; j < no; ++j) {
        int64_t o = outg[j];
        if (o >= ni) last_use[o - ni] = n_total;
    }

    /* Pass 3: emission with LIFO slot recycling.  Dead operand slots are
       released only after the destination is allocated, so a destination
       never aliases its own operands. */
    for (int32_t k = 0; k < ni; ++k) slot[k] = k;
    int32_t n_free = 0, next_new = ni;
    e = 0;
    for (int32_t node = 0; node < nn; ++node) {
        if (!needed[node]) continue;
        const int64_t* g = genes + (int64_t)node * 3;
        int32_t opc = fn2op[g[2]];
        int32_t ar = op_arity[opc];
        int64_t ga = g[0], gb = g[1];
        ops[e] = opc;
        sa[e] = ar >= 1 ? slot[ga] : 0;
        sb[e] = ar >= 2 ? slot[gb] : 0;
        int32_t d = n_free ? free_stack[--n_free] : next_new++;
        dst[e] = d;
        slot[ni + node] = d;
        if (ar >= 1 && ga >= ni && last_use[ga - ni] == e)
            free_stack[n_free++] = slot[ga];
        if (ar >= 2 && gb >= ni && gb != ga && last_use[gb - ni] == e)
            free_stack[n_free++] = slot[gb];
        ++e;
    }
    for (int32_t j = 0; j < no; ++j) out_slots[j] = slot[outg[j]];
    return n_total;
}

/* Slot -> row resolution shared by cgp_kernel and cgp_eval_batch.
   Slots below ni are the shared packed stimulus; slot s >= ni is row
   s - ni of the candidate's private scratch lane.  cgp_kernel's arena
   is the degenerate case lane == arena + ni*W (one contiguous buffer),
   so both entries execute byte-identically. */
static inline const uint64_t* src_row(const uint64_t* inputs,
                                      const uint64_t* lane,
                                      int32_t ni, int32_t W, int32_t s)
{
    return s < ni ? inputs + (size_t)s * W : lane + (size_t)(s - ni) * W;
}

/* Tiled interpreter over one compiled program (see ENGINE_TILE_WORDS).
   Destinations are always >= ni (primary inputs are never recycled), so
   all stores land in the candidate's lane. */
static void exec_program(const uint64_t* inputs, uint64_t* lane,
                         int32_t ni, int32_t W, int32_t n_ops,
                         const int32_t* ops, const int32_t* sa,
                         const int32_t* sb, const int32_t* dst)
{
    for (int32_t t = 0; t < W; t += ENGINE_TILE_WORDS) {
        int32_t tw = W - t;
        if (tw > ENGINE_TILE_WORDS) tw = ENGINE_TILE_WORDS;
        size_t t8 = (size_t)tw * 8;
        for (int32_t i = 0; i < n_ops; ++i) {
            const uint64_t* restrict a =
                src_row(inputs, lane, ni, W, sa[i]) + t;
            const uint64_t* restrict b =
                src_row(inputs, lane, ni, W, sb[i]) + t;
            uint64_t* restrict o = lane + (size_t)(dst[i] - ni) * W + t;
            switch (ops[i]) {
            case 0: memset(o, 0, t8); break;
            case 1: memset(o, 0xFF, t8); break;
            case 2: memcpy(o, a, t8); break;
            case 3: for (int32_t w = 0; w < tw; ++w) o[w] = ~a[w]; break;
            case 4: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] & b[w]; break;
            case 5: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] | b[w]; break;
            case 6: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] ^ b[w]; break;
            case 7: for (int32_t w = 0; w < tw; ++w) o[w] = ~(a[w] & b[w]); break;
            case 8: for (int32_t w = 0; w < tw; ++w) o[w] = ~(a[w] | b[w]); break;
            case 9: for (int32_t w = 0; w < tw; ++w) o[w] = ~(a[w] ^ b[w]); break;
            case 10: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] & ~b[w]; break;
            case 11: for (int32_t w = 0; w < tw; ++w) o[w] = a[w] | ~b[w]; break;
            }
        }
    }
}

/* One program over one contiguous arena (the truth-table path). */
void cgp_kernel(uint64_t* arena, int32_t ni, int32_t W, int32_t n_ops,
                const int32_t* ops, const int32_t* sa, const int32_t* sb,
                const int32_t* dst)
{
    exec_program(arena, arena + (size_t)ni * W, ni, W, n_ops,
                 ops, sa, sb, dst);
}

/* Bit-transpose the output planes into per-vector byte groups.
   scratch needs (n_bits+7)/8 * ceil(num_vectors/8) uint64 entries.
   All (up to) 8 planes of a byte group are combined in one pass, so
   each accumulator word is stored exactly once.  Takes one pointer per
   plane (rather than slot indices) so callers can resolve slots against
   either a contiguous arena or a split inputs/lane pair. */
static int64_t transpose_planes(const uint64_t* const* planes,
                                int32_t n_bits, int64_t num_vectors,
                                uint64_t* scratch)
{
    int64_t ngroups = (num_vectors + 7) >> 3;
    int32_t n_acc = (n_bits + 7) >> 3;
    for (int32_t gi = 0; gi < n_acc; ++gi) {
        uint64_t* restrict acc = scratch + (size_t)gi * ngroups;
        int32_t j0 = gi * 8;
        int32_t k = n_bits - j0;
        if (k > 8) k = 8;
        const uint8_t* pb[8];
        for (int32_t j = 0; j < k; ++j)
            pb[j] = (const uint8_t*)planes[j0 + j];
        int64_t m0 = 0;
        if (k == 8) {
#ifdef __AVX2__
            /* 32 vectors (= 4 bytes of each plane) per iteration: spread
               a broadcast 32-bit chunk to bytes with a shuffle, pick each
               byte's bit with cmpeq against a bit mask, OR the planes. */
            const __m256i repl = _mm256_setr_epi8(
                0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
                2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
            const __m256i bits = _mm256_setr_epi8(
                1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
                1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128);
            int64_t chunks = ngroups / 4;   /* 4 acc words = 32 vectors */
            uint8_t* accb = (uint8_t*)acc;
            for (int64_t c = 0; c < chunks; ++c) {
                __m256i a = _mm256_setzero_si256();
                for (int32_t j = 0; j < 8; ++j) {
                    uint32_t chunk;
                    memcpy(&chunk, pb[j] + 4 * c, 4);
                    __m256i x = _mm256_set1_epi32((int32_t)chunk);
                    x = _mm256_shuffle_epi8(x, repl);
                    x = _mm256_cmpeq_epi8(_mm256_and_si256(x, bits), bits);
                    x = _mm256_and_si256(x, _mm256_set1_epi8((char)(1 << j)));
                    a = _mm256_or_si256(a, x);
                }
                _mm256_storeu_si256((__m256i*)(accb + 32 * c), a);
            }
            m0 = chunks * 4;
#endif
            for (int64_t m = m0; m < ngroups; ++m)
                acc[m] = SPREAD[pb[0][m]]
                       | (SPREAD[pb[1][m]] << 1)
                       | (SPREAD[pb[2][m]] << 2)
                       | (SPREAD[pb[3][m]] << 3)
                       | (SPREAD[pb[4][m]] << 4)
                       | (SPREAD[pb[5][m]] << 5)
                       | (SPREAD[pb[6][m]] << 6)
                       | (SPREAD[pb[7][m]] << 7);
        } else {
            (void)m0;
            for (int64_t m = 0; m < ngroups; ++m) {
                uint64_t x = 0;
                for (int32_t j = 0; j < k; ++j)
                    x |= SPREAD[pb[j][m]] << j;
                acc[m] = x;
            }
        }
    }
    return ngroups;
}

/* Byte-group rows of the transposed planes: acc[g][v] holds output bits
   8g .. 8g+7 of vector v.  Rows past the bus's (n_bits + 7) / 8 groups
   alias row 0 (never read), so callers can pass acc[1] unconditionally
   without pointing past the scratch. */
static int32_t group_rows(const uint64_t* scratch, int32_t n_bits,
                          int64_t ngroups, const uint8_t** acc)
{
    int32_t n_acc = (n_bits + 7) >> 3;
    for (int32_t g = 0; g < 8; ++g)
        acc[g] = (const uint8_t*)(scratch + (g < n_acc ? g * ngroups : 0));
    return n_acc;
}

/* Vector v's output word joined from its n_acc byte groups, as int64:
   sign-extended from bit 63 - ext when do_sign (ext = 64 - n_bits). */
static inline int64_t wide_value(const uint8_t* const* acc, int32_t n_acc,
                                 int32_t do_sign, int32_t ext, int64_t v)
{
    uint64_t u = 0;
    for (int32_t g = 0; g < n_acc; ++g)
        u |= (uint64_t)acc[g][v] << (8 * g);
    return do_sign ? (int64_t)(u << ext) >> ext : (int64_t)u;
}

void cgp_decode(const uint64_t* arena, int32_t W, const int32_t* out_slots,
                int32_t n_bits, int64_t num_vectors, int32_t do_sign,
                uint64_t* scratch, int64_t* restrict values)
{
    const uint64_t* planes[ENGINE_MAX_BITS];
    for (int32_t j = 0; j < n_bits; ++j)
        planes[j] = arena + (size_t)out_slots[j] * W;
    int64_t ngroups =
        transpose_planes(planes, n_bits, num_vectors, scratch);
    const uint8_t* acc[8];
    int32_t n_acc = group_rows(scratch, n_bits, ngroups, acc);
    int32_t sign = do_sign && n_bits > 0;
    for (int64_t v = 0; v < num_vectors; ++v)
        values[v] = wide_value(acc, n_acc, sign, 64 - n_bits, v);
}

/* Fused decode + |exact - value| (the per-vector distance row, int64).
   The n_bits <= 16 case — every paper width — is a single lane-wise loop
   (byte interleave, sign-extend shifts, subtract, absolute value,
   widen): hand-vectorized 8 vectors per iteration under AVX2, with a
   scalar tail (and non-AVX2 fallback) built from the identical integer
   expressions, so every path produces the same integers. */
static void err_loop_16(const uint8_t* restrict a0,
                        const uint8_t* restrict a1, int32_t two_acc,
                        int32_t do_sign, int32_t ext,
                        const int32_t* restrict exact,
                        int64_t* restrict err, int64_t n)
{
    int64_t v = 0;
#ifdef __AVX2__
    for (; v + 8 <= n; v += 8) {
        __m256i x = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64((const __m128i*)(a0 + v)));
        if (two_acc) {
            __m256i hi = _mm256_cvtepu8_epi32(
                _mm_loadl_epi64((const __m128i*)(a1 + v)));
            x = _mm256_or_si256(x, _mm256_slli_epi32(hi, 8));
        }
        if (do_sign)
            x = _mm256_srai_epi32(
                _mm256_slli_epi32(x, ext), ext);
        __m256i d = _mm256_abs_epi32(_mm256_sub_epi32(
            _mm256_loadu_si256((const __m256i*)(exact + v)), x));
        _mm256_storeu_si256((__m256i*)(err + v),
            _mm256_cvtepu32_epi64(_mm256_castsi256_si128(d)));
        _mm256_storeu_si256((__m256i*)(err + v + 4),
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(d, 1)));
    }
#endif
    for (; v < n; ++v) {
        int32_t val = a0[v];
        if (two_acc) val |= (int32_t)a1[v] << 8;
        if (do_sign) val = (int32_t)((uint32_t)val << ext) >> ext;
        int32_t d = exact[v] - val;
        err[v] = d < 0 ? -(int64_t)d : (int64_t)d;
    }
}

#ifdef __AVX2__
/* 64-bit lanes w * d mod 2^64 for d < 2^32: AVX2 has no 64x64 multiply,
   so w * d = lo32(w) * d + (hi32(w) * d << 32).  Exact whenever the true
   product fits, which the weight total's bound guarantees. */
static inline __m256i mul_u64_u32(__m256i w, __m256i d)
{
    __m256i lo = _mm256_mul_epu32(w, d);
    __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(w, 32), d);
    return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}
#endif

/* Store the five statistics; with wmask == 0 the weights are uniform
   (one count wrow[0]), so the weighted sums are that count times the
   plain ones — the same integers without reading a weight row. */
static void store_stats(int64_t* restrict stats, uint64_t sum, uint64_t nz,
                        int64_t mx, uint64_t ws, uint64_t wnz,
                        const int64_t* wrow, int64_t wmask)
{
    if (!wmask) {
        uint64_t w0 = wrow ? (uint64_t)wrow[0] : 0;
        ws = w0 * sum;
        wnz = w0 * nz;
    }
    stats[0] = (int64_t)sum;
    stats[1] = (int64_t)nz;
    stats[2] = mx;
    stats[3] = (int64_t)ws;
    stats[4] = (int64_t)wnz;
}

/* Reduced decode: the same decoded values and |exact - value| integer
   distances as err_loop_16, folded on the fly into five integers —
   sum, nonzero count, max, and the weighted sum and weighted nonzero
   count over the integer weights W[v] = wrow[v & wmask] — instead of a
   distance row.  Integer addition is associative, so any accumulation
   order gives the same integers; the weighted sums wrap (unsigned)
   only past the bound the caller checks against max |d|.  wmask + 1 is
   the weights' period (>= 8 when non-zero, so eight consecutive
   vectors read eight consecutive weights). */
static void reduce_loop_16(const uint8_t* restrict a0,
                           const uint8_t* restrict a1, int32_t two_acc,
                           int32_t do_sign, int32_t ext,
                           const int32_t* restrict exact, int64_t n,
                           const int64_t* restrict wrow, int64_t wmask,
                           int64_t* restrict stats)
{
    uint64_t sum = 0, nz = 0, ws = 0, wnz = 0;
    int64_t mx = 0;
    int64_t v = 0;
#ifdef __AVX2__
    const __m256i zero = _mm256_setzero_si256();
    __m256i vsum = zero, vnz = zero, vmx = zero, vws = zero, vwnz = zero;
    for (; v + 8 <= n; v += 8) {
        __m256i x = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64((const __m128i*)(a0 + v)));
        if (two_acc) {
            __m256i hi = _mm256_cvtepu8_epi32(
                _mm_loadl_epi64((const __m128i*)(a1 + v)));
            x = _mm256_or_si256(x, _mm256_slli_epi32(hi, 8));
        }
        if (do_sign)
            x = _mm256_srai_epi32(
                _mm256_slli_epi32(x, ext), ext);
        __m256i d = _mm256_abs_epi32(_mm256_sub_epi32(
            _mm256_loadu_si256((const __m256i*)(exact + v)), x));
        __m256i d0 = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(d));
        __m256i d1 = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(d, 1));
        vsum = _mm256_add_epi64(vsum, _mm256_add_epi64(d0, d1));
        __m256i ne = _mm256_cmpgt_epi32(d, zero);
        vnz = _mm256_sub_epi32(vnz, ne);
        vmx = _mm256_max_epi32(vmx, d);
        if (wmask) {
            const int64_t* w = wrow + (v & wmask);
            __m256i w0 = _mm256_loadu_si256((const __m256i*)w);
            __m256i w1 = _mm256_loadu_si256((const __m256i*)(w + 4));
            vws = _mm256_add_epi64(vws, mul_u64_u32(w0, d0));
            vws = _mm256_add_epi64(vws, mul_u64_u32(w1, d1));
            vwnz = _mm256_add_epi64(vwnz, _mm256_and_si256(w0,
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(ne))));
            vwnz = _mm256_add_epi64(vwnz, _mm256_and_si256(w1,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(ne, 1))));
        }
    }
    uint64_t s4[4];
    int32_t l8[8];
    _mm256_storeu_si256((__m256i*)s4, vsum);
    sum = s4[0] + s4[1] + s4[2] + s4[3];
    _mm256_storeu_si256((__m256i*)s4, vws);
    ws = s4[0] + s4[1] + s4[2] + s4[3];
    _mm256_storeu_si256((__m256i*)s4, vwnz);
    wnz = s4[0] + s4[1] + s4[2] + s4[3];
    _mm256_storeu_si256((__m256i*)l8, vnz);
    for (int32_t j = 0; j < 8; ++j) nz += (uint32_t)l8[j];
    _mm256_storeu_si256((__m256i*)l8, vmx);
    for (int32_t j = 0; j < 8; ++j) if (l8[j] > mx) mx = l8[j];
#endif
    for (; v < n; ++v) {
        int32_t val = a0[v];
        if (two_acc) val |= (int32_t)a1[v] << 8;
        if (do_sign) val = (int32_t)((uint32_t)val << ext) >> ext;
        int32_t d = exact[v] - val;
        if (d < 0) d = -d;
        sum += (uint64_t)d;
        nz += (d != 0);
        if (d > mx) mx = d;
        if (wmask) {
            uint64_t w = (uint64_t)wrow[v & wmask];
            ws += w * (uint64_t)d;
            wnz += d ? w : 0;
        }
    }
    store_stats(stats, sum, nz, mx, ws, wnz, wrow, wmask);
}

/* Wide decode + |exact - value|: any bus up to ENGINE_MAX_BITS, against
   an int64 reference.  |exact| < 2^62 and a 62-bit value keep every
   distance below 2^63, so nothing wraps. */
static void err_loop_wide(const uint8_t* const* acc, int32_t n_acc,
                          int32_t do_sign, int32_t ext,
                          const int64_t* restrict exact,
                          int64_t* restrict err, int64_t n)
{
    for (int64_t v = 0; v < n; ++v) {
        int64_t d = exact[v] - wide_value(acc, n_acc, do_sign, ext, v);
        err[v] = d < 0 ? -d : d;
    }
}

/* Integer-statistics twin of err_loop_wide (see reduce_loop_16 for the
   five sums).  The caller bounds N * max |d| and the weighted sums by
   2^63 (ErrorMetric.from_stats checks max |d| against both). */
static void reduce_loop_wide(const uint8_t* const* acc, int32_t n_acc,
                             int32_t do_sign, int32_t ext,
                             const int64_t* restrict exact, int64_t n,
                             const int64_t* restrict wrow, int64_t wmask,
                             int64_t* restrict stats)
{
    uint64_t sum = 0, nz = 0, ws = 0, wnz = 0;
    int64_t mx = 0;
    for (int64_t v = 0; v < n; ++v) {
        int64_t d = exact[v] - wide_value(acc, n_acc, do_sign, ext, v);
        if (d < 0) d = -d;
        sum += (uint64_t)d;
        nz += (d != 0);
        if (d > mx) mx = d;
        if (wmask) {
            uint64_t w = (uint64_t)wrow[v & wmask];
            ws += w * (uint64_t)d;
            wnz += d ? w : 0;
        }
    }
    store_stats(stats, sum, nz, mx, ws, wnz, wrow, wmask);
}

/* Decode + distance row.  The narrow AVX2 loop runs when the bus has at
   most 16 bits and the caller passes the int32 copy of the reference
   (exact32, only when it leaves int32 headroom); everything else takes
   the wide loop over the int64 reference. */
static void decode_err_planes(const uint64_t* const* planes, int32_t n_bits,
                              int64_t num_vectors, int32_t do_sign,
                              uint64_t* scratch, const int32_t* exact32,
                              const int64_t* exact, int64_t* restrict err)
{
    int64_t ngroups =
        transpose_planes(planes, n_bits, num_vectors, scratch);
    const uint8_t* acc[8];
    int32_t n_acc = group_rows(scratch, n_bits, ngroups, acc);
    int32_t sign = do_sign && n_bits > 0;
    if (exact32 && n_bits <= 16) {
        err_loop_16(acc[0], acc[1], n_acc > 1, sign, 32 - n_bits, exact32,
                    err, num_vectors);
        return;
    }
    err_loop_wide(acc, n_acc, sign, 64 - n_bits, exact, err, num_vectors);
}

/* Integer-statistics twin of decode_err_planes: identical decode and
   distance expressions, but the distances are reduced on the fly into
   stats = {sum |d|, count(d != 0), max |d|, sum W|d|, sum W[d != 0]}
   (see reduce_loop_16) with no distance row ever written.  The vectors
   split into `blocks` consecutive equal blocks (a sampled objective's
   replicate streams), each reduced into its own five integers at
   stats + 5b; every block's weights start at wrow[0], so blocks > 1
   needs a block length that the weight period divides (sampled
   objectives weigh uniformly).  Distances stay below 2^63 (see
   err_loop_wide); the caller checks max |d| against the block length
   and the weights' bound, so no sum wraps. */
static void decode_reduce_planes(const uint64_t* const* planes,
                                 int32_t n_bits, int64_t num_vectors,
                                 int32_t do_sign, uint64_t* scratch,
                                 const int32_t* exact32,
                                 const int64_t* exact,
                                 const int64_t* wrow, int64_t wmask,
                                 int32_t blocks, int64_t* restrict stats)
{
    int64_t ngroups =
        transpose_planes(planes, n_bits, num_vectors, scratch);
    const uint8_t* acc[8];
    int32_t n_acc = group_rows(scratch, n_bits, ngroups, acc);
    int32_t sign = do_sign && n_bits > 0;
    int64_t n = num_vectors / blocks;
    for (int32_t b = 0; b < blocks; ++b) {
        int64_t v0 = (int64_t)b * n;
        int64_t* bstats = stats + (int64_t)ENGINE_STATS * b;
        if (exact32 && n_bits <= 16) {
            reduce_loop_16(acc[0] + v0, acc[1] + v0, n_acc > 1, sign,
                           32 - n_bits, exact32 + v0, n, wrow, wmask,
                           bstats);
            continue;
        }
        const uint8_t* bacc[8];
        for (int32_t g = 0; g < 8; ++g) bacc[g] = acc[g] + v0;
        reduce_loop_wide(bacc, n_acc, sign, 64 - n_bits, exact + v0, n,
                         wrow, wmask, bstats);
    }
}

/* One candidate of a batch: execute its program into its lane, then
   decode + error straight from the lane (or the shared inputs, for
   outputs wired directly to a primary input).  With stats non-NULL the
   distance row is never touched: the distances are folded into the
   five-integer summary of each of the `blocks` vector blocks instead
   (see decode_reduce_planes). */
static void eval_candidate(const uint64_t* inputs, uint64_t* lane,
                           int32_t ni, int32_t W, int32_t n_ops,
                           const int32_t* ops, const int32_t* sa,
                           const int32_t* sb, const int32_t* dst,
                           const int32_t* osl, int32_t n_bits,
                           int64_t num_vectors, int32_t do_sign,
                           uint64_t* scratch, const int32_t* exact32,
                           const int64_t* exact, const int64_t* wrow,
                           int64_t wmask, int64_t* err, int32_t blocks,
                           int64_t* stats)
{
    exec_program(inputs, lane, ni, W, n_ops, ops, sa, sb, dst);
    const uint64_t* planes[ENGINE_MAX_BITS];
    for (int32_t j = 0; j < n_bits; ++j)
        planes[j] = src_row(inputs, lane, ni, W, osl[j]);
    if (stats)
        decode_reduce_planes(planes, n_bits, num_vectors, do_sign,
                             scratch, exact32, exact, wrow, wmask, blocks,
                             stats);
    else
        decode_err_planes(planes, n_bits, num_vectors, do_sign, scratch,
                          exact32, exact, err);
}

/* Batched evaluation: one call runs n_cand compiled programs over the
   shared packed stimulus.  Every candidate owns a program slab row and
   an error row; lane and transpose-scratch rows are per candidate too
   unless their stride is 0.  A compiled program writes every non-input
   slot before reading it (slots map to inputs or earlier destinations
   of the same program), so with stride 0 the serial loop soundly reuses
   one lane for all candidates — a much smaller, cache-resident working
   set.  With OpenMP compiled in and nthreads > 1 the candidates are
   split across a team of nthreads (callers must then pass full
   strides); nthreads <= 1 runs them in order on the calling thread.
   Each candidate's arithmetic is identical either way (pure integer
   ops, no cross-candidate reads), so serial and parallel results match
   bit-for-bit.  Strides are in elements of the respective arrays.
   With stats non-NULL, block b of candidate c's distances reduces into
   stats[5(c*blocks + b) .. 5(c*blocks + b) + 4] and the err rows are
   never written. */
void cgp_eval_batch(const uint64_t* inputs, uint64_t* lanes, int32_t ni,
                    int32_t lane_stride_rows, int32_t W, int32_t n_cand,
                    const int32_t* n_ops_arr, const int32_t* ops,
                    const int32_t* sa, const int32_t* sb,
                    const int32_t* dst, int64_t prog_stride,
                    const int32_t* out_slots, int32_t n_bits,
                    int64_t out_stride, int64_t num_vectors,
                    int32_t do_sign, uint64_t* scratch,
                    int64_t scratch_stride, const int32_t* exact32,
                    const int64_t* exact, const int64_t* wrow, int64_t wmask,
                    int64_t* err, int64_t err_stride, int64_t* stats,
                    int32_t blocks, int32_t nthreads)
{
#define EVAL_CANDIDATE(c)                                                 \
    eval_candidate(inputs, lanes + (size_t)(c) * lane_stride_rows * W,    \
                   ni, W, n_ops_arr[c], ops + (c) * prog_stride,          \
                   sa + (c) * prog_stride, sb + (c) * prog_stride,        \
                   dst + (c) * prog_stride, out_slots + (c) * out_stride, \
                   n_bits, num_vectors, do_sign,                          \
                   scratch + (c) * scratch_stride, exact32, exact, wrow,  \
                   wmask, err + (c) * err_stride, blocks,                 \
                   stats ? stats + ENGINE_STATS * (int64_t)blocks * (c) : 0)
#ifdef _OPENMP
    if (nthreads > 1 && n_cand > 1) {
#pragma omp parallel for schedule(static) num_threads(nthreads)
        for (int32_t c = 0; c < n_cand; ++c)
            EVAL_CANDIDATE(c);
        return;
    }
#else
    (void)nthreads;
#endif
    for (int32_t c = 0; c < n_cand; ++c)
        EVAL_CANDIDATE(c);
#undef EVAL_CANDIDATE
}

int32_t cgp_omp_compiled(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

int32_t cgp_omp_max_threads(void)
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}
"""

_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_P = ctypes.c_void_p


def _cache_dir() -> str:
    override = os.environ.get("REPRO_ENGINE_CACHE")
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~" and os.path.isdir(home):
        return os.path.join(home, ".cache", "repro-engine")
    return os.path.join(
        tempfile.gettempdir(), f"repro-engine-{os.getuid()}"
    )


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _host_tag() -> str:
    """Identifies the host ISA for the .so cache key.

    ``-march=native`` bakes the build host's instruction set into the
    binary, so a cached artifact must never be reused on a different
    CPU (e.g. a shared NFS home across heterogeneous cluster nodes —
    loading an AVX-512 build on an older node would SIGILL).  The CPU
    feature flags are the discriminator; fall back to coarse platform
    identity where /proc/cpuinfo is unavailable.
    """
    ident = [platform.system(), platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith(("flags", "features")):
                    ident.append(line.strip())
                    break
    except OSError:
        ident.append(platform.processor())
    return "|".join(ident)


def _build_shared_object() -> Optional[str]:
    """Compile C_SOURCE into a cached .so; return its path or None."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    # Prefer OpenMP-enabled builds (for the batched entry point); fall
    # back to plain builds when the toolchain lacks -fopenmp.  Either
    # way results are bit-identical — OpenMP only splits the candidate
    # loop of cgp_eval_batch across threads.
    flag_sets = (
        ["-O3", "-march=native", "-fopenmp", "-shared", "-fPIC"],
        ["-O3", "-march=native", "-shared", "-fPIC"],
        ["-O3", "-fopenmp", "-shared", "-fPIC"],
        ["-O3", "-shared", "-fPIC"],
    )
    cache = _cache_dir()
    for flags in flag_sets:
        tag = hashlib.blake2b(
            (
                C_SOURCE + repr(flags) + str(_ABI_VERSION) + _host_tag()
            ).encode(),
            digest_size=8,
        ).hexdigest()
        so_path = os.path.join(cache, f"engine_{tag}.so")
        if os.path.exists(so_path):
            return so_path
        try:
            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = os.path.join(tmp, "engine.c")
                out = os.path.join(tmp, "engine.so")
                with open(src, "w") as fh:
                    fh.write(C_SOURCE)
                proc = subprocess.run(
                    [compiler, *flags, "-o", out, src],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode != 0:
                    continue
                os.replace(out, so_path)  # atomic: safe under races
            return so_path
        except (OSError, subprocess.SubprocessError):
            continue
    return None


class NativeLib:
    """The loaded engine library: its ctypes signatures and OpenMP team.

    ``_lib`` is the ``ctypes.CDLL``.  Its one caller,
    :class:`repro.engine.evaluator._Runtime`, calls the ``cgp_*``
    functions on it directly, with buffer addresses it computes once and
    argument tuples it builds ahead of time, so an evaluation costs one
    ctypes call and no per-call pointer conversion.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        lib = ctypes.CDLL(path)
        lib.cgp_init.restype = None
        lib.cgp_compile.restype = _I32
        lib.cgp_compile.argtypes = [
            _P, _I32, _I32, _I32, _P, _P, _P, _P, _P, _P, _P, _P, _P
        ]
        lib.cgp_kernel.restype = None
        lib.cgp_kernel.argtypes = [_P, _I32, _I32, _I32, _P, _P, _P, _P]
        lib.cgp_decode.restype = None
        lib.cgp_decode.argtypes = [_P, _I32, _P, _I32, _I64, _I32, _P, _P]
        lib.cgp_eval_batch.restype = None
        lib.cgp_eval_batch.argtypes = [
            _P, _P, _I32, _I32, _I32, _I32,      # inputs..n_cand
            _P, _P, _P, _P, _P, _I64,            # n_ops, slabs, prog_stride
            _P, _I32, _I64,                      # out_slots, n_bits, stride
            _I64, _I32, _P, _I64,                # nvec, sign, scratch+stride
            _P, _P, _P, _I64,                    # exact32, exact, weights
            _P, _I64, _P, _I32, _I32,            # err+stride, stats,
                                                 # blocks, nthreads
        ]
        lib.cgp_omp_compiled.restype = _I32
        lib.cgp_omp_compiled.argtypes = []
        lib.cgp_omp_max_threads.restype = _I32
        lib.cgp_omp_max_threads.argtypes = []
        lib.cgp_init()
        self._lib = lib
        self._omp_compiled = bool(lib.cgp_omp_compiled())
        #: The OpenMP team size (``omp_get_max_threads``, which the
        #: standard ``OMP_NUM_THREADS`` caps); 1 without OpenMP.
        self._omp_default = (
            int(lib.cgp_omp_max_threads()) if self._omp_compiled else 1
        )

    def omp_compiled(self) -> bool:
        """Whether the loaded .so was built with ``-fopenmp``."""
        return self._omp_compiled


_lock = threading.Lock()
_cached: Optional[NativeLib] = None
_build_attempted = False


def native_lib() -> Optional[NativeLib]:
    """The loaded native library, or ``None`` when unavailable.

    Build + load happen once per process; failures are remembered so a
    missing compiler costs one probe, not one per evaluator.
    """
    global _cached, _build_attempted
    if os.environ.get("REPRO_ENGINE", "").lower() in ("numpy", "py", "off"):
        return None
    with _lock:
        if _cached is not None or _build_attempted:
            return _cached
        _build_attempted = True
        path = _build_shared_object()
        if path is None:
            return None
        try:
            _cached = NativeLib(path)
        except OSError:
            _cached = None
        return _cached


def native_available() -> bool:
    """Whether the C backend can be (or has been) built and loaded."""
    return native_lib() is not None


#: Pid of the process that last ran an OpenMP team (> 1 threads).
#: libgomp's worker threads do not survive fork(); a forked child of a
#: process that has already spun up a team (e.g. a ProcessPoolExecutor
#: sweep worker) would deadlock on the next parallel region, so such
#: children are forced onto the bit-identical serial loop.
_omp_team_pid: Optional[int] = None


def _mark_omp_team_used() -> None:
    global _omp_team_pid
    _omp_team_pid = os.getpid()


def omp_threads() -> int:
    """The OpenMP team size batched native dispatch can use.

    ``omp_get_max_threads`` of the loaded library, which the standard
    ``OMP_NUM_THREADS`` caps; 1 when the .so lacks OpenMP, when no
    native backend loads, or in a forked child of a process that
    already ran a team (see ``_omp_team_pid``).  Whether a brood uses
    the team is each runtime's decision (``repro.engine.evaluator``);
    the serial and threaded loops are bit-identical by construction.
    """
    lib = native_lib()
    if lib is None or not lib.omp_compiled():
        return 1
    if _omp_team_pid is not None and _omp_team_pid != os.getpid():
        return 1
    return lib._omp_default
