/* The PIR scan kernel: XOR [count] consecutive [bucket]-byte records of
   [src] into each lane's accumulator, record [j] masked for lane [q] by
   bit [q & 7] of [bits[bits_pos + (q >> 3) * stride + j]].

   [Xorbuf.xor_buckets_lanes] checks every range before calling in, so
   nothing here is bounds-checked. The selection bits are secret: they
   only ever become all-zero or all-one masks by arithmetic. The only
   control flow is [for] loops bounded by [count], [bucket] and the lane
   count, every record is loaded and every accumulator word is rewritten
   whatever the bits are, so the memory trace and the instruction stream
   are functions of the geometry alone. The analysis tests reject any
   branching keyword or short-circuit operator in this file.

   One source for every platform: the GCC/Clang generic vector type
   builds to SSE2 on x86-64 and NEON on aarch64. Loads and stores go
   through memcpy, which compiles to unaligned vector moves. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

typedef uint64_t v128 __attribute__((vector_size(16)));

static inline v128 load(const unsigned char *p)
{
  v128 v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store(unsigned char *p, v128 v)
{
  memcpy(p, &v, sizeof v);
}

/* All ones when lane [q]'s bit for record [j] is set, else zero. */
static inline uint64_t lane_mask(const unsigned char *bits, intnat stride, intnat q, intnat j)
{
  return (uint64_t)0 - (uint64_t)((bits[(q >> 3) * stride + j] >> (q & 7)) & 1);
}

static inline v128 splat(uint64_t m)
{
  v128 v = { m, m };
  return v;
}

/* Records go in tiles of four with the lanes inside each tile, so a
   tile is read from memory once and from L1 by every further lane, and
   each lane pays one accumulator read-modify-write per four records. */
static void xor_lanes(const unsigned char *bits, intnat stride, intnat count,
                      const unsigned char *src, intnat bucket, value dsts)
{
  intnat lanes = Wosize_val(dsts);
  intnat vec = bucket & ~(intnat)15;
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
      v128 v0 = splat(m0), v1 = splat(m1), v2 = splat(m2), v3 = splat(m3);
      for (intnat o = 0; o < vec; o += 16) {
        v128 a = load(d + o);
        a ^= ((load(s0 + o) & v0) ^ (load(s1 + o) & v1)) ^ ((load(s2 + o) & v2) ^ (load(s3 + o) & v3));
        store(d + o, a);
      }
      for (intnat o = vec; o < bucket; o++)
        d[o] ^= (unsigned char)(((s0[o] & m0) ^ (s1[o] & m1)) ^ ((s2[o] & m2) ^ (s3[o] & m3)));
    }
  }
  for (intnat j = tiles; j < count; j++) {
    const unsigned char *s = src + j * bucket;
    for (intnat q = 0; q < lanes; q++) {
      unsigned char *d = Bytes_val(Field(dsts, q));
      uint64_t m = lane_mask(bits, stride, q, j);
      v128 v = splat(m);
      for (intnat o = 0; o < vec; o += 16)
        store(d + o, load(d + o) ^ (load(s + o) & v));
      for (intnat o = vec; o < bucket; o++)
        d[o] ^= (unsigned char)(s[o] & m);
    }
  }
}

value lw_xor_buckets_lanes(value bits, value bits_pos, value stride, value count, value src,
                           value src_pos, value bucket, value dsts)
{
  xor_lanes(Bytes_val(bits) + Long_val(bits_pos), Long_val(stride), Long_val(count),
            Bytes_val(src) + Long_val(src_pos), Long_val(bucket), dsts);
  return Val_unit;
}

value lw_xor_buckets_lanes_byte(value *argv, int argn)
{
  (void)argn;
  return lw_xor_buckets_lanes(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                              argv[7]);
}
