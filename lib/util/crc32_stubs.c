/* CRC-32 (IEEE 802.3, the reflected polynomial 0xEDB88320): the wire
   codec's integrity trailer. One C call per range; [Crc32] checks the
   build index and the range before calling in, so nothing here is
   bounds-checked.

   Two builds of one function. "pclmul" (x86-64 with PCLMULQDQ) folds the
   input with carry-less multiplies: four 128-bit lanes 64 bytes apart
   while four 16-byte blocks are left, then one lane over the remaining
   blocks, then 128 to 64 bits and a Barrett reduction to the 32-bit
   register; the last 0-15 bytes go four at a time, and then the last
   0-3 in one step, through the same reduction. Every address it loads is
   a function of the length alone: no table, and no load indexed by a
   message byte. "baseline" is slice-by-8 over eight 256-entry tables,
   the only build off x86-64; its loads are indexed by the message bytes,
   as the OCaml code it replaced was. Both compute the same register.

   The CPU alone picks the build: [lw_crc_first] reads CPUID once, when
   [Crc32] is initialised, and every call runs that build; no option or
   environment variable reaches it. Tests and benchmarks may name any
   build the CPU runs. The only control flow is [for] loops over the
   length (a loop that runs once or not at all stands for a choice on
   it), and the analysis tests reject any branching keyword or
   short-circuit operator in this file, so platform choices are made
   with [#ifdef]. The constants of the folding build are those of Gopal
   et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
   Instruction" (Intel, 2009), for this polynomial, bit-reflected. */

#include <stdint.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#define POLY 0xEDB88320u

/* The four bytes at [p] as a little-endian word, on any host. */
static inline uint32_t
le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

/* [tables[k][b]] is the register after byte [b] and then [k] zero
   bytes, from a zero register; [lw_crc_first] fills them. */
static uint32_t tables[8][256];

/* Slice-by-8: eight table lookups per eight bytes, then the bytes left
   one lookup each. [c] is the register, inverted. */
static __attribute__((noinline, noclone)) uint32_t
crc_baseline(uint32_t c, const unsigned char *p, intnat len)
{
  intnat i = 0;
  for (; i + 8 <= len; i += 8) {
    uint32_t lo = c ^ le32(p + i), hi = le32(p + i + 4);
    c = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^ tables[5][(lo >> 16) & 0xff] ^
        tables[4][lo >> 24] ^ tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
        tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
  }
  for (; i < len; i++)
    c = tables[0][(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c;
}

#ifdef __x86_64__
#include <immintrin.h>

#define PCLMUL __attribute__((target("pclmul")))
#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))

/* [x]'s two halves carried [k]'s distance ahead, and [next] XORed in. */
PCLMUL static inline __attribute__((always_inline)) __m128i
fold(__m128i x, __m128i k, __m128i next)
{
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/* Barrett reduction: the register whose remainder is [x]'s low 64
   bits', in bits 32 to 63 of [x] plus [P] times the low 32 bits of
   [mu] times [x]'s low 32 bits. [pmu] holds [P] low and [mu] high. */
PCLMUL static inline __attribute__((always_inline)) uint32_t
barrett(__m128i x, __m128i pmu)
{
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
  return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t), 4));
}

/* Carry-less folding; [c] is the register, inverted. */
PCLMUL static __attribute__((noinline, noclone)) uint32_t
crc_pclmul(uint32_t c, const unsigned char *p, intnat len)
{
  /* x^(4*128+32) and x^(4*128-32) mod P: a lane 64 bytes ahead */
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  /* x^(128+32) and x^(128-32) mod P: a block 16 bytes ahead */
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  /* x^64 mod P */
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  /* P, and mu = x^64 / P */
  const __m128i pmu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  intnat blocks = len / 16, b = 0;
  __m128i x = _mm_cvtsi32_si128((int)c);
  /* four lanes, when there are four blocks; then folded into one */
  for (intnat wide = blocks >= 4; wide; wide = 0) {
    __m128i y0 = _mm_xor_si128(LOAD(p), x), y1 = LOAD(p + 16), y2 = LOAD(p + 32),
            y3 = LOAD(p + 48);
    for (b = 4; b + 4 <= blocks; b += 4) {
      const unsigned char *q = p + 16 * b;
      y0 = fold(y0, k1k2, LOAD(q));
      y1 = fold(y1, k1k2, LOAD(q + 16));
      y2 = fold(y2, k1k2, LOAD(q + 32));
      y3 = fold(y3, k1k2, LOAD(q + 48));
    }
    x = fold(fold(fold(y0, k3k4, y1), k3k4, y2), k3k4, y3);
  }
  /* one lane: its first block, when the four lanes did not run */
  for (intnat first = (blocks > 0) & (b == 0); first; first = 0) {
    x = _mm_xor_si128(LOAD(p), x);
    b = 1;
  }
  for (; b < blocks; b++)
    x = fold(x, k3k4, LOAD(p + 16 * b));
  /* the lane to 64 bits, then to the register, when a block was read */
  for (intnat any = blocks > 0; any; any = 0) {
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                      _mm_srli_si128(x, 4));
    c = barrett(x, pmu);
  }
  /* the last 0-15 bytes: four at a time, as a block of four shifts the
     register out whole */
  intnat i = 16 * blocks;
  for (; i + 4 <= len; i += 4)
    c = barrett(_mm_cvtsi32_si128((int)(c ^ le32(p + i))), pmu);
  /* then the last [k] (0-3) in one step: the register's low [k] bytes
     with the message's, as the top of a block of four whose low bytes
     are zero, and the rest of the register shifted down */
  intnat k = len - i;
  uint64_t d = 0;
  for (intnat j = 0; j < k; j++)
    d |= (uint64_t)p[i + j] << (8 * j);
  uint64_t t = ((uint64_t)c ^ d) & ((((uint64_t)1) << (8 * k)) - 1);
  return (uint32_t)((uint64_t)c >> (8 * k)) ^
         barrett(_mm_cvtsi64_si128((long long)(t << (32 - 8 * k))), pmu);
}
#endif

typedef uint32_t build_fn(uint32_t, const unsigned char *, intnat);

/* The builds, preferred first. */
static build_fn *const builds[] = {
#ifdef __x86_64__
  crc_pclmul,
#endif
  crc_baseline,
};

static const char *build_names[] = {
#ifdef __x86_64__
  "pclmul",
#endif
  "baseline",
  NULL,
};

value lw_crc_builds(value unit)
{
  (void)unit;
  return caml_copy_string_array(build_names);
}

/* Fills the baseline's tables, then returns the index of the first
   build this CPU runs: the number of builds before it in [builds] whose
   features CPUID does not report. */
value lw_crc_first(value unit)
{
  (void)unit;
  for (uint32_t b = 0; b < 256; b++) {
    uint32_t c = b;
    for (int k = 0; k < 8; k++)
      c = (c >> 1) ^ (POLY & -(c & 1));
    tables[0][b] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int b = 0; b < 256; b++)
      tables[k][b] = (tables[k - 1][b] >> 8) ^ tables[0][tables[k - 1][b] & 0xff];
  intnat skip = 0;
#ifdef __x86_64__
  __builtin_cpu_init();
  skip = __builtin_cpu_supports("pclmul") == 0;
#endif
  return Val_long(skip);
}

/* [crc] continued over [len] bytes of [s] from [pos], on build [build]. */
value lw_crc_update(value build, value crc, value s, value pos, value len)
{
  uint32_t c = ~(uint32_t)Long_val(crc);
  c = builds[Long_val(build)](c, (const unsigned char *)String_val(s) + Long_val(pos),
                              Long_val(len));
  return Val_long(~c);
}
