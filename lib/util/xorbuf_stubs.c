/* The PIR scan kernel: XOR [count] consecutive [bucket]-byte records of
   [src] into each lane's accumulator, record [j] masked for lane [q] by
   bit [q & 7] of [bits[bits_pos + (q >> 3) * stride + j]].

   [Xorbuf] checks the build index and every range before calling in, so
   nothing here is bounds-checked. The selection bits are secret: they
   only ever become all-zero or all-one masks by arithmetic. The only
   control flow is [for] loops bounded by [count], [bucket] and the lane
   count, every record byte is read by every lane and every accumulator
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

/* Records go in tiles, and the lanes go inside each tile: the first
   lane streams a tile from memory and every further lane re-reads it
   from L1, paying one accumulator read-modify-write per tile.
   - A bucket wider than a strip takes tiles of [DEEP] records, walked
     in column strips of [STRIP] bytes with every lane inside each
     strip, so what the further lanes re-read is one strip of the tile,
     not the whole tile.
   - A bucket no wider than a strip takes tiles of [SHALLOW] records,
     each walked whole: a deeper tile of such records streams worse.
   The depths and the strip width are constants and [bucket] picks
   between them through loop bounds, so every bound is a function of
   [count], [bucket] and the lane count alone. */
#define DEEP 8
#define SHALLOW 4
#define STRIP 512

/* Bytes [lo, end) of records [j, j + depth) of [s] into every lane:
   whole vectors up to [vec_end], single bytes from there. A lane's
   [depth] selection bytes are read as one word, in which byte [r]
   starts at bit [8 * (r ^ (7 * big))]. */
static inline __attribute__((always_inline)) void
xor_strip(const unsigned char *bits, intnat stride, intnat j, intnat depth,
          const unsigned char *s, intnat bucket, value dsts, intnat lanes, intnat lo,
          intnat vec_end, intnat end)
{
  const intnat big = __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__;
  for (intnat q = 0; q < lanes; q++) {
    unsigned char *d = Bytes_val(Field(dsts, q));
    uint64_t w = 0, m[DEEP];
    __builtin_memcpy(&w, bits + (q >> 3) * stride + j, depth);
    w = (w >> (q & 7)) & 0x0101010101010101ull;
    /* all ones where lane [q]'s bit for record [j + r] is set, else zero */
#pragma GCC unroll 8
    for (intnat r = 0; r < depth; r++)
      m[r] = (uint64_t)0 - ((w >> (8 * (r ^ (7 * big)))) & 1);
    for (intnat o = lo; o < vec_end; o += sizeof(vec)) {
      vec x = AT(s + o) & m[0];
#pragma GCC unroll 8
      for (intnat r = 1; r < depth; r++)
        x ^= AT(s + r * bucket + o) & m[r];
      AT(d + o) ^= x;
    }
    for (intnat o = vec_end; o < end; o++) {
      uint64_t x = s[o] & m[0];
#pragma GCC unroll 8
      for (intnat r = 1; r < depth; r++)
        x ^= s[r * bucket + o] & m[r];
      d[o] ^= (unsigned char)x;
    }
  }
}

/* Records [j, j + depth) of [s] into every lane, strip by strip; the
   last strip takes what is left of the bucket. */
static inline __attribute__((always_inline)) void
xor_tile(const unsigned char *bits, intnat stride, intnat j, intnat depth,
         const unsigned char *s, intnat bucket, value dsts, intnat lanes)
{
  intnat strips_end = bucket & ~(intnat)(STRIP - 1);
  for (intnat lo = 0; lo < strips_end; lo += STRIP)
    xor_strip(bits, stride, j, depth, s, bucket, dsts, lanes, lo, lo + STRIP, lo + STRIP);
  xor_strip(bits, stride, j, depth, s, bucket, dsts, lanes, strips_end,
            bucket & ~(intnat)(sizeof(vec) - 1), bucket);
}

/* Shallow tiles (narrow buckets only), then deep tiles (wide buckets
   only), then the records left over, one at a time and each walked
   whole. */
static inline __attribute__((always_inline)) void
xor_lanes(const unsigned char *bits, intnat stride, intnat count, const unsigned char *src,
          intnat bucket, value dsts)
{
  intnat lanes = Wosize_val(dsts);
  intnat vec_end = bucket & ~(intnat)(sizeof(vec) - 1);
  intnat shallow_end = count & ~(intnat)(SHALLOW - 1) & -(intnat)(bucket <= STRIP);
  intnat deep_end = shallow_end + ((count - shallow_end) & ~(intnat)(DEEP - 1));
  for (intnat j = 0; j < shallow_end; j += SHALLOW)
    xor_strip(bits, stride, j, SHALLOW, src + j * bucket, bucket, dsts, lanes, 0, vec_end,
              bucket);
  for (intnat j = shallow_end; j < deep_end; j += DEEP)
    xor_tile(bits, stride, j, DEEP, src + j * bucket, bucket, dsts, lanes);
  for (intnat j = deep_end; j < count; j++)
    xor_strip(bits, stride, j, 1, src + j * bucket, bucket, dsts, lanes, 0, vec_end, bucket);
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
