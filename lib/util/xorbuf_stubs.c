/* The PIR scan kernel: XOR [count] consecutive [bucket]-byte records of
   [src] into each lane's accumulator, record [j] masked for lane [q] by
   bit [q & 7] of [bits[bits_pos + (q >> 3) * stride + j]].

   One loop order for every geometry. Records go in tiles of the build's
   depth. Each 64-byte column of a tile is loaded once into that many
   vectors, and every lane of a group of up to eight takes its masked
   XOR from those registers, with one accumulator read-modify-write per
   column. Wider batches take each tile once per group; leftover records
   go as tiles of one, and a bucket's bytes past its last whole vector
   one at a time.

   [Xorbuf] checks the build index and every range before calling in, so
   nothing here is bounds-checked. The selection bits are secret: they
   only ever become all-zero or all-one masks by arithmetic. The only
   control flow is [for] loops bounded by [count], [bucket] and the lane
   count: every record byte is read for each group of lanes and every
   accumulator word rewritten once per tile whatever the bits, so the
   memory trace and the instruction stream are functions of the geometry
   alone.
   The analysis tests reject any branching keyword or short-circuit
   operator in this file, so platform choices are made with [#ifdef].

   One source, one build per vector width: the body's 64-byte generic
   vectors lower to one AVX-512 register ("avx512"), two AVX2 registers
   ("avx2"), or on any other CPU four 16-byte registers ("baseline": SSE2
   on x86-64, NEON on aarch64). The builds differ only in their [target]
   attribute and tile depth, so each keeps the argument above. The CPU
   alone picks the build: [lw_scan_first] reads CPUID once, when [Xorbuf]
   is initialised, and every scan runs the widest build the CPU reports;
   no option or environment variable reaches it. Tests and benchmarks may
   name any build the CPU runs. */

#include <stdint.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* A 64-byte vector at any byte address. A [uint64_t] operand of [&] is
   splatted to all eight words. */
typedef uint64_t vec __attribute__((vector_size(64), aligned(1), may_alias));
#define AT(p) (*(vec *)(p))

#define GROUP 8 /* lanes per group: one selection plane */

/* One lane's share of a column: the records of [v] its masks select,
   XORed into [d]. */
static inline __attribute__((always_inline)) void
xor_column(const vec *v, const uint64_t *m, intnat depth, unsigned char *d)
{
  vec x = v[0] & m[0];
#pragma GCC unroll 8
  for (intnat r = 1; r < depth; r++)
    x ^= v[r] & m[r];
  AT(d) ^= x;
}

/* Bytes [0, end) of the [depth] records at [s] into lanes [g, g + n)
   under masks [m], whole columns up to [vec_end]. The group's first
   lane goes last, so its masks can take the registers the others
   free. */
static inline __attribute__((always_inline)) void
xor_columns(const unsigned char *s, intnat bucket, intnat depth, intnat vec_end, intnat end,
            uint64_t (*m)[GROUP], value dsts, intnat g, intnat n)
{
  for (intnat o = 0; o < vec_end; o += sizeof(vec)) {
    vec v[GROUP];
#pragma GCC unroll 8
    for (intnat r = 0; r < depth; r++)
      v[r] = AT(s + r * bucket + o);
    for (intnat q = 1; q < n; q++)
      xor_column(v, m[q], depth, Bytes_val(Field(dsts, g + q)) + o);
    xor_column(v, m[0], depth, Bytes_val(Field(dsts, g)) + o);
  }
  for (intnat o = vec_end; o < end; o++)
    for (intnat q = 0; q < n; q++) {
      uint64_t x = s[o] & m[q][0];
#pragma GCC unroll 8
      for (intnat r = 1; r < depth; r++)
        x ^= s[r * bucket + o] & m[q][r];
      Bytes_val(Field(dsts, g + q))[o] ^= (unsigned char)x;
    }
}

/* Records [j, j + depth) of [s] into every lane, a group at a time. A
   group reads its [depth] selection bytes as one word. A lone lane
   walks a copy of the columns made for one lane, which spends no
   registers on a loop over the others. */
static inline __attribute__((always_inline)) void
xor_tile(const unsigned char *bits, intnat stride, intnat j, intnat depth,
         const unsigned char *s, intnat bucket, value dsts, intnat lanes)
{
  const intnat big = __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__;
  intnat vec_end = bucket & ~(intnat)(sizeof(vec) - 1);
  for (intnat g = 0; g < lanes; g += GROUP) {
    intnat n = lanes - g;
    n += (GROUP - n) & -(intnat)(n > GROUP);
    uint64_t w = 0, m[GROUP][GROUP];
    __builtin_memcpy(&w, bits + (g >> 3) * stride + j, depth);
    /* all ones where lane [g + q]'s bit for record [j + r] is set */
    for (intnat q = 0; q < n; q++)
#pragma GCC unroll 8
      for (intnat r = 0; r < depth; r++)
        m[q][r] = (uint64_t)0 - ((w >> (8 * (r ^ (7 * big)) + q)) & 1);
    intnat lone = -(intnat)(n == 1);
    xor_columns(s, bucket, depth, vec_end & ~lone, bucket & ~lone, m, dsts, g, n);
    xor_columns(s, bucket, depth, vec_end & lone, bucket & lone, m, dsts, g, 1);
  }
}

/* Tiles of [depth] records, then the records left over as tiles of one. */
static inline __attribute__((always_inline)) void
xor_lanes(const unsigned char *bits, intnat stride, intnat count, const unsigned char *src,
          intnat bucket, value dsts, intnat depth)
{
  intnat lanes = Wosize_val(dsts);
  intnat tiles_end = count - count % depth;
  for (intnat j = 0; j < tiles_end; j += depth)
    xor_tile(bits, stride, j, depth, src + j * bucket, bucket, dsts, lanes);
  for (intnat j = tiles_end; j < count; j++)
    xor_tile(bits, stride, j, 1, src + j * bucket, bucket, dsts, lanes);
}

/* A build: the body under a [target] attribute, at its tile depth.
   Eight records' columns take 8 of AVX-512's 32 registers; AVX2 holds
   four in 8 of its 16, leaving the rest to the lone lane's masks and
   accumulator. The baseline's 16 xmm registers hold two at most, and
   so shallow a tile pays an accumulator pass per two records, so it
   takes the depth that measured fastest and reads its tile back from
   the stack. */
#define BUILD(name, attr, depth)                                                            \
  attr static void xor_lanes_##name(const unsigned char *bits, intnat stride, intnat count, \
                                    const unsigned char *src, intnat bucket, value dsts)    \
  {                                                                                         \
    xor_lanes(bits, stride, count, src, bucket, dsts, depth);                               \
  }

#ifdef __x86_64__
BUILD(avx512, __attribute__((target("avx512f"))), 8)
BUILD(avx2, __attribute__((target("avx2"))), 4)
#endif
BUILD(baseline, , 8)

typedef void build_fn(const unsigned char *, intnat, intnat, const unsigned char *, intnat, value);

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
