/* The PIR scan kernel: XOR [count] consecutive [bucket]-byte records of
   [src] into each lane's accumulator, record [j] masked for lane [q] by
   bit [q & 7] of [bits[bits_pos + (q >> 3) * stride + j]].

   [Xorbuf] checks the build index and every range before calling in, so
   nothing here is bounds-checked. The selection bits are secret: they
   only ever become all-zero or all-one masks by arithmetic. The only
   control flow is [for] loops bounded by [count], [bucket] and the lane
   count, every record is loaded once per tile and every accumulator
   word is rewritten on every tile whatever the bits are, so the memory
   trace and the instruction stream are functions of the geometry
   alone. The analysis tests reject any branching keyword or
   short-circuit operator in this file, so platform choices are made
   with [#ifdef] alone.

   One source, one build per vector width. [xor_lanes] works on 64-byte
   GCC/Clang generic vectors at any byte address, and each build lowers
   them for its own instruction set: one AVX-512 register ("avx512"),
   two AVX2 registers ("avx2"), or on any other CPU four 16-byte
   registers ("baseline": SSE2 on x86-64, NEON on aarch64). The builds
   are the one inline body under different [target] attributes, so they
   differ in instruction selection only and each keeps the argument
   above. The CPU alone picks the build: [lw_scan_first] reads CPUID
   once, when [Xorbuf] is initialised, and every scan runs the widest
   build the CPU reports; no option or environment variable reaches
   it. Tests and benchmarks may name any build the CPU runs. */

#include <stdint.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* A 64-byte vector at any byte address. A [uint64_t] operand of [&] is
   splatted to all eight words. */
typedef uint64_t vec __attribute__((vector_size(64), aligned(1), may_alias));
#define AT(p) (*(vec *)(p))

/* All ones when lane [q]'s bit for record [j] is set, else zero. */
static inline __attribute__((always_inline)) uint64_t
lane_mask(const unsigned char *bits, intnat stride, intnat q, intnat j)
{
  return (uint64_t)0 - (uint64_t)((bits[(q >> 3) * stride + j] >> (q & 7)) & 1);
}

/* Records go in tiles of four with the lanes inside each tile, so a
   tile is read from memory once and from L1 by every further lane, and
   each lane pays one accumulator read-modify-write per four records. */
static inline __attribute__((always_inline)) void
xor_lanes(const unsigned char *bits, intnat stride, intnat count, const unsigned char *src,
          intnat bucket, value dsts)
{
  intnat lanes = Wosize_val(dsts);
  intnat vec_end = bucket & ~(intnat)(sizeof(vec) - 1);
  intnat tiles = count & ~(intnat)3;
  for (intnat j = 0; j < tiles; j += 4) {
    const unsigned char *s0 = src + j * bucket;
    const unsigned char *s1 = s0 + bucket;
    const unsigned char *s2 = s1 + bucket;
    const unsigned char *s3 = s2 + bucket;
    for (intnat q = 0; q < lanes; q++) {
      unsigned char *d = Bytes_val(Field(dsts, q));
      uint64_t m0 = lane_mask(bits, stride, q, j);
      uint64_t m1 = lane_mask(bits, stride, q, j + 1);
      uint64_t m2 = lane_mask(bits, stride, q, j + 2);
      uint64_t m3 = lane_mask(bits, stride, q, j + 3);
      for (intnat o = 0; o < vec_end; o += sizeof(vec))
        AT(d + o) ^= ((AT(s0 + o) & m0) ^ (AT(s1 + o) & m1)) ^
                     ((AT(s2 + o) & m2) ^ (AT(s3 + o) & m3));
      for (intnat o = vec_end; o < bucket; o++)
        d[o] ^= (unsigned char)(((s0[o] & m0) ^ (s1[o] & m1)) ^ ((s2[o] & m2) ^ (s3[o] & m3)));
    }
  }
  for (intnat j = tiles; j < count; j++) {
    const unsigned char *s = src + j * bucket;
    for (intnat q = 0; q < lanes; q++) {
      unsigned char *d = Bytes_val(Field(dsts, q));
      uint64_t m = lane_mask(bits, stride, q, j);
      for (intnat o = 0; o < vec_end; o += sizeof(vec))
        AT(d + o) ^= AT(s + o) & m;
      for (intnat o = vec_end; o < bucket; o++)
        d[o] ^= (unsigned char)(s[o] & m);
    }
  }
}

typedef void build_fn(const unsigned char *, intnat, intnat, const unsigned char *, intnat, value);

static void xor_lanes_baseline(const unsigned char *bits, intnat stride, intnat count,
                               const unsigned char *src, intnat bucket, value dsts)
{
  xor_lanes(bits, stride, count, src, bucket, dsts);
}

#ifdef __x86_64__
__attribute__((target("avx2"))) static void
xor_lanes_avx2(const unsigned char *bits, intnat stride, intnat count, const unsigned char *src,
               intnat bucket, value dsts)
{
  xor_lanes(bits, stride, count, src, bucket, dsts);
}

__attribute__((target("avx512f"))) static void
xor_lanes_avx512(const unsigned char *bits, intnat stride, intnat count, const unsigned char *src,
                 intnat bucket, value dsts)
{
  xor_lanes(bits, stride, count, src, bucket, dsts);
}
#endif

/* The builds, widest first; each needs a subset of the CPU features of
   the one before it. */
static build_fn *const builds[] = {
#ifdef __x86_64__
  xor_lanes_avx512,
  xor_lanes_avx2,
#endif
  xor_lanes_baseline,
};

static const char *build_names[] = {
#ifdef __x86_64__
  "avx512",
  "avx2",
#endif
  "baseline",
  NULL,
};

value lw_scan_builds(value unit)
{
  (void)unit;
  return caml_copy_string_array(build_names);
}

/* The index of the widest build this CPU runs: the number of builds
   before it in [builds] whose features CPUID does not report. */
value lw_scan_first(value unit)
{
  (void)unit;
  intnat skip = 0;
#ifdef __x86_64__
  __builtin_cpu_init();
  intnat avx2 = __builtin_cpu_supports("avx2") != 0;
  intnat avx512 = avx2 & (__builtin_cpu_supports("avx512f") != 0);
  skip = 2 - avx2 - avx512;
#endif
  return Val_long(skip);
}

value lw_xor_buckets_lanes(value build, value bits, value bits_pos, value stride, value count,
                           value src, value src_pos, value bucket, value dsts)
{
  builds[Long_val(build)](Bytes_val(bits) + Long_val(bits_pos), Long_val(stride),
                          Long_val(count), Bytes_val(src) + Long_val(src_pos),
                          Long_val(bucket), dsts);
  return Val_unit;
}

value lw_xor_buckets_lanes_byte(value *argv, int argn)
{
  (void)argn;
  return lw_xor_buckets_lanes(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                              argv[7], argv[8]);
}
