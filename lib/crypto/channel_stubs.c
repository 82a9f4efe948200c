/* The secure channel's primitives: ChaCha20 (RFC 8439, and its 8- and
   12-round variants), Poly1305 and X25519 (RFC 7748). [Chacha20],
   [Drbg], [Prg.convert], [Aead], [Poly1305], [X25519] and through them
   [Secure_channel] and access control all run these bodies; there is
   no second implementation.

   Keys, nonces' keystreams, message bytes, tags and scalars are secret.
   They are only ever data: loaded, added, multiplied, XORed and turned
   into all-zero or all-one masks by arithmetic. No table is indexed by
   them and nothing branches on them. The only control flow is [for]
   loops over public bounds: message and block lengths, the round count
   and the ladder's 255 fixed steps. The analysis tests reject any
   branching keyword or short-circuit operator in this file, so platform
   choices are made with [#ifdef] alone.

   ChaCha20 has one body and one build per vector width, as the scan
   kernel does (xorbuf_stubs.c): sixteen blocks run at once, one block
   per 32-bit lane of sixteen 64-byte generic vectors, which lower to
   one AVX-512 register each ("avx512") or four 16-byte registers
   ("baseline": SSE2 on x86-64, NEON on aarch64). The baseline needs 64
   of them and the CPU has 16, so it spills the state every round and
   runs at a fraction of the avx512 speed.
   A run's last one to fifteen blocks go through the same sixteen-lane
   body into a stack buffer when there are three or more of them, and
   one block at a time in plain 32-bit words otherwise. The CPU alone
   picks the build: [lw_chacha_first] reads CPUID once, when [Chacha20]
   is initialised; no option or environment variable reaches it. Tests
   and benchmarks may name any build the CPU runs.

   Poly1305 keeps its accumulator in three limbs of 44, 44 and 42 bits
   in 64-bit words, with 128-bit products (poly1305-donna's 64-bit
   form), and takes two blocks per step against r^2 and r. X25519 is the RFC 7748 Montgomery ladder over five 51-bit
   limbs with 128-bit products; its conditional swap is a mask, and the
   inversion is the fixed chain of squarings and multiplications for
   p - 2. Both need a compiler with [unsigned __int128]: GCC and Clang
   on any 64-bit target. */

#include <stdint.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#define INLINE static inline __attribute__((always_inline))

INLINE uint32_t le32(const uint8_t *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
}

INLINE uint64_t le64(const uint8_t *p) { return (uint64_t)le32(p) | ((uint64_t)le32(p + 4) << 32); }

INLINE void put_le32(uint8_t *p, uint32_t v)
{
  p[0] = (uint8_t)v;
  p[1] = (uint8_t)(v >> 8);
  p[2] = (uint8_t)(v >> 16);
  p[3] = (uint8_t)(v >> 24);
}

INLINE void put_le64(uint8_t *p, uint64_t v)
{
  put_le32(p, (uint32_t)v);
  put_le32(p + 4, (uint32_t)(v >> 32));
}

/* ------------------------------------------------------------------ */
/* ChaCha20                                                            */
/* ------------------------------------------------------------------ */

/* The state's 16 words: the constants "expand 32-byte k", the key, the
   block counter and the nonce. */
INLINE void chacha_init(uint32_t in[16], const uint8_t *key, const uint8_t *nonce, uint32_t ctr)
{
  in[0] = 0x61707865;
  in[1] = 0x3320646e;
  in[2] = 0x79622d32;
  in[3] = 0x6b206574;
  for (int i = 0; i < 8; i++)
    in[4 + i] = le32(key + 4 * i);
  in[12] = ctr;
  for (int i = 0; i < 3; i++)
    in[13 + i] = le32(nonce + 4 * i);
}

#define ROTL(x, k) (((x) << (k)) | ((x) >> (32 - (k))))

#define QR(a, b, c, d)                                                                         \
  a += b;                                                                                      \
  d ^= a;                                                                                      \
  d = ROTL(d, 16);                                                                             \
  c += d;                                                                                      \
  b ^= c;                                                                                      \
  b = ROTL(b, 12);                                                                             \
  a += b;                                                                                      \
  d ^= a;                                                                                      \
  d = ROTL(d, 8);                                                                              \
  c += d;                                                                                      \
  b ^= c;                                                                                      \
  b = ROTL(b, 7)

#define DOUBLE_ROUND(x)                                                                        \
  QR(x[0], x[4], x[8], x[12]);                                                                 \
  QR(x[1], x[5], x[9], x[13]);                                                                 \
  QR(x[2], x[6], x[10], x[14]);                                                                \
  QR(x[3], x[7], x[11], x[15]);                                                                \
  QR(x[0], x[5], x[10], x[15]);                                                                \
  QR(x[1], x[6], x[11], x[12]);                                                                \
  QR(x[2], x[7], x[8], x[13]);                                                                 \
  QR(x[3], x[4], x[9], x[14])

/* One keystream block for counter [in[12]] into [ks]: ten double
   rounds. */
INLINE void chacha_block(const uint32_t in[16], uint8_t ks[64])
{
  uint32_t x[16];
  memcpy(x, in, sizeof x);
  for (int r = 0; r < 10; r++) {
    DOUBLE_ROUND(x);
  }
  for (int i = 0; i < 16; i++)
    put_le32(ks + 4 * i, x[i] + in[i]);
}

/* Sixteen 32-bit lanes: lane [j] of word [i] is word [i] of block [j]. */
typedef uint32_t lanes __attribute__((vector_size(64)));

/* Sixteen keystream blocks from counter [in[12]], block [j] XORed into
   the 64 bytes at [64 j] of [src] and written to [dst]. The lanes are
   transposed in registers: four butterfly stages, stage [b] swapping
   bit [b] of the word index with bit [b] of the block index between
   the words [r] and [r | 2^b]. A block's words then sit in lane order,
   which memory holds little-endian. */
INLINE void chacha_blocks16(const uint32_t in[16], const uint8_t *src, uint8_t *dst)
{
  static const lanes swap_lo[4] = {
    { 0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14, 30 },
    { 0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13, 28, 29 },
    { 0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10, 11, 24, 25, 26, 27 },
    { 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23 },
  };
  static const lanes swap_hi[4] = {
    { 1, 17, 3, 19, 5, 21, 7, 23, 9, 25, 11, 27, 13, 29, 15, 31 },
    { 2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14, 15, 30, 31 },
    { 4, 5, 6, 7, 20, 21, 22, 23, 12, 13, 14, 15, 28, 29, 30, 31 },
    { 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31 },
  };
  const lanes step = { 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15 };
  lanes x[16], y[16];
  for (int i = 0; i < 16; i++)
    x[i] = (lanes){ 0 } + in[i];
  x[12] += step;
  memcpy(y, x, sizeof y);
  for (int r = 0; r < 10; r++) {
    DOUBLE_ROUND(y);
  }
  for (int i = 0; i < 16; i++)
    y[i] += x[i];
#pragma GCC unroll 4
  for (int b = 0; b < 4; b++)
#pragma GCC unroll 8
    for (int k = 0; k < 8; k++) {
      int r = ((k >> b) << (b + 1)) | (k & ((1 << b) - 1)), r2 = r | (1 << b);
      lanes lo = __builtin_shuffle(y[r], y[r2], swap_lo[b]);
      y[r2] = __builtin_shuffle(y[r], y[r2], swap_hi[b]);
      y[r] = lo;
    }
  for (int j = 0; j < 16; j++) {
    lanes v;
    memcpy(&v, src + 64 * j, sizeof v);
    v ^= y[j];
    memcpy(dst + 64 * j, &v, sizeof v);
  }
}

_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
               "the ChaCha20 lanes are stored as little-endian words");

/* [a] capped at [b], by arithmetic. */
INLINE intnat min_len(intnat a, intnat b) { return a - ((a - b) & -(intnat)(a > b)); }

/* dst := src ^ keystream over [len] bytes, from block [ctr]; the
   counter wraps at 32 bits. [src] and [dst] may be the same buffer. */
INLINE void chacha_body(const uint8_t *key, const uint8_t *nonce, uint32_t ctr, const uint8_t *src,
                        uint8_t *dst, intnat len)
{
  uint32_t in[16];
  uint8_t ks[1024];
  chacha_init(in, key, nonce, ctr);
  intnat full = len / 1024;
  for (intnat b = 0; b < full; b++) {
    in[12] = ctr + (uint32_t)(16 * b);
    chacha_blocks16(in, src + 1024 * b, dst + 1024 * b);
  }
  intnat done = 1024 * full, rest = len - done;
  intnat blocks = (rest + 63) / 64;
  intnat wide = blocks >= 3;
  in[12] = ctr + (uint32_t)(16 * full);
  for (intnat t = 0; t < wide; t++) {
    memset(ks, 0, sizeof ks);
    memcpy(ks, src + done, (size_t)rest);
    chacha_blocks16(in, ks, ks);
    memcpy(dst + done, ks, (size_t)rest);
  }
  for (intnat b = 0; b < blocks * (1 - wide); b++) {
    in[12] = ctr + (uint32_t)(16 * full + b);
    chacha_block(in, ks);
    intnat n = min_len(rest - 64 * b, 64);
    for (intnat o = 0; o < n; o++)
      dst[done + 64 * b + o] = src[done + 64 * b + o] ^ ks[o];
  }
}

#define BUILD(name, attr)                                                                      \
  attr static void chacha_##name(const uint8_t *key, const uint8_t *nonce, uint32_t ctr,      \
                                 const uint8_t *src, uint8_t *dst, intnat len)                 \
  {                                                                                            \
    chacha_body(key, nonce, ctr, src, dst, len);                                               \
  }

#ifdef __x86_64__
BUILD(avx512, __attribute__((target("avx512f"))))
#endif
BUILD(baseline, )

struct build {
  const char *name;
  void (*chacha)(const uint8_t *key, const uint8_t *nonce, uint32_t ctr, const uint8_t *src,
                 uint8_t *dst, intnat len);
};

#define ROW(name) { #name, chacha_##name }

/* The builds, widest first; each needs a subset of the CPU features of
   the one before it. */
static const struct build builds[] = {
#ifdef __x86_64__
  ROW(avx512),
#endif
  ROW(baseline),
};

#define BUILDS ((intnat)(sizeof builds / sizeof builds[0]))

value lw_chacha_builds(value unit)
{
  (void)unit;
  const char *names[BUILDS + 1];
  for (intnat i = 0; i < BUILDS; i++)
    names[i] = builds[i].name;
  names[BUILDS] = NULL;
  return caml_copy_string_array(names);
}

/* The index of the widest build this CPU runs: the number of builds
   before it whose features CPUID does not report. */
value lw_chacha_first(value unit)
{
  (void)unit;
  intnat skip = 0;
#ifdef __x86_64__
  __builtin_cpu_init();
  skip = __builtin_cpu_supports("avx512f") == 0;
#endif
  return Val_long(skip);
}

/* [Chacha20] and [Drbg] check the build index, the lengths and every
   range before calling in. */

value lw_chacha_xor(value build, value key, value nonce, value ctr, value src, value src_pos,
                    value dst, value dst_pos, value len)
{
  builds[Long_val(build)].chacha((const uint8_t *)String_val(key),
                                 (const uint8_t *)String_val(nonce), (uint32_t)Long_val(ctr),
                                 Bytes_val(src) + Long_val(src_pos),
                                 Bytes_val(dst) + Long_val(dst_pos), Long_val(len));
  return Val_unit;
}

value lw_chacha_xor_byte(value *argv, int argn)
{
  (void)argn;
  return lw_chacha_xor(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
                       argv[8]);
}

/* A DRBG draw's last [rest] bytes and its ratchet: the blocks after
   the draw's [full] whole ones, one at a time in plain 32-bit words,
   their first [rest] bytes into [dst] and the next 32 over [key]. Kept
   out of line, so it has its own symbol. */
static __attribute__((noinline)) void drbg_ratchet(uint8_t *key, const uint8_t *nonce, intnat full,
                                                   uint8_t *dst, intnat rest)
{
  uint8_t ks[128];
  uint32_t in[16];
  chacha_init(in, key, nonce, 0);
  for (intnat b = 0; b < (rest + 32 + 63) / 64; b++) {
    in[12] = (uint32_t)(full + b);
    chacha_block(in, ks + 64 * b);
  }
  memcpy(dst, ks, (size_t)rest);
  memcpy(key, ks + rest, 32);
}

/* A DRBG draw: the keystream under [key] and the nonce [counter] (8
   bytes little-endian, then 4 zero bytes) from block 0, its first [len]
   bytes into [dst] and the 32 after them over [key]. The whole blocks
   run on the build, the rest in [drbg_ratchet]. */
value lw_chacha_drbg(value build, value key, value counter, value dst, value dst_pos, value len)
{
  uint8_t nonce[12] = { 0 };
  put_le64(nonce, (uint64_t)Long_val(counter));
  uint8_t *k = Bytes_val(key), *d = Bytes_val(dst) + Long_val(dst_pos);
  intnat full = Long_val(len) / 64;
  memset(d, 0, (size_t)(64 * full));
  builds[Long_val(build)].chacha(k, nonce, 0, d, d, 64 * full);
  drbg_ratchet(k, nonce, full, d + 64 * full, Long_val(len) - 64 * full);
  return Val_unit;
}

value lw_chacha_drbg_byte(value *argv, int argn)
{
  (void)argn;
  return lw_chacha_drbg(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* ------------------------------------------------------------------ */
/* Poly1305                                                            */
/* ------------------------------------------------------------------ */

typedef unsigned __int128 u128;

#define M44 0xfffffffffffULL
#define M42 0x3ffffffffffULL

/* The accumulator h, the key's r and r^2 (each with its limbs 1 and 2
   times 20 beside it: a product landing at 2^132 folds back as 4 * 5),
   and the pad. */
struct poly {
  uint64_t r0, r1, r2, s1, s2, q0, q1, q2, u1, u2, h0, h1, h2, pad0, pad1;
};

/* h := the 130-bit sums d, carried back to 44/44/42-bit limbs mod
   2^130 - 5 (limb 1 may keep a few bits over 44). */
INLINE void poly_carry(u128 d0, u128 d1, u128 d2, uint64_t *h0, uint64_t *h1, uint64_t *h2)
{
  uint64_t c = (uint64_t)(d0 >> 44);
  *h0 = (uint64_t)d0 & M44;
  d1 += c;
  c = (uint64_t)(d1 >> 44);
  *h1 = (uint64_t)d1 & M44;
  d2 += c;
  c = (uint64_t)(d2 >> 42);
  *h2 = (uint64_t)d2 & M42;
  *h0 += c * 5;
  c = *h0 >> 44;
  *h0 &= M44;
  *h1 += c;
}

INLINE void poly_init(struct poly *st, const uint8_t *key)
{
  uint64_t t0 = le64(key), t1 = le64(key + 8);
  /* r is clamped as RFC 8439 asks */
  uint64_t r0 = t0 & 0xffc0fffffffULL;
  uint64_t r1 = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  uint64_t r2 = (t1 >> 24) & 0x00ffffffc0fULL;
  uint64_t s1 = r1 * 20, s2 = r2 * 20;
  st->r0 = r0;
  st->r1 = r1;
  st->r2 = r2;
  st->s1 = s1;
  st->s2 = s2;
  poly_carry((u128)r0 * r0 + (u128)r1 * s2 + (u128)r2 * s1,
             (u128)r0 * r1 + (u128)r1 * r0 + (u128)r2 * s2,
             (u128)r0 * r2 + (u128)r1 * r1 + (u128)r2 * r0, &st->q0, &st->q1, &st->q2);
  st->u1 = st->q1 * 20;
  st->u2 = st->q2 * 20;
  st->h0 = st->h1 = st->h2 = 0;
  st->pad0 = le64(key + 16);
  st->pad1 = le64(key + 24);
}

/* A 16-byte block as limbs, [hibit] (2^128 or 0) added. */
INLINE void poly_limbs(const uint8_t *m, uint64_t hibit, uint64_t *m0, uint64_t *m1, uint64_t *m2)
{
  uint64_t t0 = le64(m), t1 = le64(m + 8);
  *m0 = t0 & M44;
  *m1 = ((t0 >> 44) | (t1 << 20)) & M44;
  *m2 = ((t1 >> 24) & M42) | hibit;
}

/* [n] 16-byte blocks of [m], each with [hibit] added: two at a time as
   h := (h + m1) r^2 + m2 r, whose two products are independent, then
   the odd one as h := (h + m) r. */
static void poly_blocks(struct poly *st, const uint8_t *m, intnat n, uint64_t hibit)
{
  uint64_t r0 = st->r0, r1 = st->r1, r2 = st->r2, s1 = st->s1, s2 = st->s2;
  uint64_t q0 = st->q0, q1 = st->q1, q2 = st->q2, u1 = st->u1, u2 = st->u2;
  uint64_t h0 = st->h0, h1 = st->h1, h2 = st->h2, a0, a1, a2, b0, b1, b2;
  for (intnat i = 0; i < n / 2; i++) {
    poly_limbs(m + 32 * i, hibit, &a0, &a1, &a2);
    poly_limbs(m + 32 * i + 16, hibit, &b0, &b1, &b2);
    a0 += h0;
    a1 += h1;
    a2 += h2;
    poly_carry((u128)a0 * q0 + (u128)a1 * u2 + (u128)a2 * u1 + (u128)b0 * r0 + (u128)b1 * s2 +
                   (u128)b2 * s1,
               (u128)a0 * q1 + (u128)a1 * q0 + (u128)a2 * u2 + (u128)b0 * r1 + (u128)b1 * r0 +
                   (u128)b2 * s2,
               (u128)a0 * q2 + (u128)a1 * q1 + (u128)a2 * q0 + (u128)b0 * r2 + (u128)b1 * r1 +
                   (u128)b2 * r0,
               &h0, &h1, &h2);
  }
  for (intnat i = 0; i < (n & 1); i++) {
    poly_limbs(m + 16 * (n - 1), hibit, &a0, &a1, &a2);
    a0 += h0;
    a1 += h1;
    a2 += h2;
    poly_carry((u128)a0 * r0 + (u128)a1 * s2 + (u128)a2 * s1,
               (u128)a0 * r1 + (u128)a1 * r0 + (u128)a2 * s2,
               (u128)a0 * r2 + (u128)a1 * r1 + (u128)a2 * r0, &h0, &h1, &h2);
  }
  st->h0 = h0;
  st->h1 = h1;
  st->h2 = h2;
}

/* [len] bytes of [m] with the last partial block zero-padded to 16 and
   taken as a whole one, as the AEAD's MAC input is built. */
INLINE void poly_padded(struct poly *st, const uint8_t *m, intnat len)
{
  intnat full = len / 16, rest = len - 16 * full;
  poly_blocks(st, m, full, 1ULL << 40);
  for (intnat t = 0; t < (rest != 0); t++) {
    uint8_t b[16] = { 0 };
    memcpy(b, m + 16 * full, (size_t)rest);
    poly_blocks(st, b, 1, 1ULL << 40);
  }
}

/* A message's last partial block, padded by a 1 byte and zeros and
   taken without the 2^128 bit. */
INLINE void poly_last(struct poly *st, const uint8_t *m, intnat len)
{
  intnat full = len / 16, rest = len - 16 * full;
  poly_blocks(st, m, full, 1ULL << 40);
  for (intnat t = 0; t < (rest != 0); t++) {
    uint8_t b[16] = { 0 };
    memcpy(b, m + 16 * full, (size_t)rest);
    b[rest] = 1;
    poly_blocks(st, b, 1, 0);
  }
}

/* h mod 2^130 - 5, fully reduced, plus the pad mod 2^128. */
INLINE void poly_finish(struct poly *st, uint8_t tag[16])
{
  uint64_t h0 = st->h0, h1 = st->h1, h2 = st->h2, c;
  c = h1 >> 44;
  h1 &= M44;
  h2 += c;
  c = h2 >> 42;
  h2 &= M42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= M44;
  h1 += c;
  c = h1 >> 44;
  h1 &= M44;
  h2 += c;
  c = h2 >> 42;
  h2 &= M42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= M44;
  h1 += c;
  /* g = h + 5 - 2^130, kept when it does not borrow, that is when h >= p */
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= M44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= M44;
  uint64_t g2 = h2 + c - (1ULL << 42);
  uint64_t keep_g = (g2 >> 63) - 1;
  h0 = (h0 & ~keep_g) | (g0 & keep_g);
  h1 = (h1 & ~keep_g) | (g1 & keep_g);
  h2 = (h2 & ~keep_g) | (g2 & keep_g);
  uint64_t t0 = st->pad0, t1 = st->pad1;
  h0 += t0 & M44;
  c = h0 >> 44;
  h0 &= M44;
  h1 += (((t0 >> 44) | (t1 << 20)) & M44) + c;
  c = h1 >> 44;
  h1 &= M44;
  h2 += ((t1 >> 24) & M42) + c;
  h2 &= M42;
  put_le64(tag, h0 | (h1 << 44));
  put_le64(tag + 8, (h1 >> 20) | (h2 << 24));
}

value lw_poly1305_mac(value key, value msg, value tag)
{
  struct poly st;
  poly_init(&st, (const uint8_t *)String_val(key));
  poly_last(&st, (const uint8_t *)String_val(msg), (intnat)caml_string_length(msg));
  poly_finish(&st, Bytes_val(tag));
  return Val_unit;
}

/* The ChaCha20-Poly1305 tag (RFC 8439 §2.8) of [aad] and the [len]
   ciphertext bytes at [ct], under the one-time key [otk]. */
INLINE void aead_tag(const uint8_t *otk, const uint8_t *aad, intnat aad_len, const uint8_t *ct,
                     intnat len, uint8_t tag[16])
{
  struct poly st;
  uint8_t lens[16];
  poly_init(&st, otk);
  poly_padded(&st, aad, aad_len);
  poly_padded(&st, ct, len);
  put_le64(lens, (uint64_t)aad_len);
  put_le64(lens + 8, (uint64_t)len);
  poly_blocks(&st, lens, 1, 1ULL << 40);
  poly_finish(&st, tag);
}

/* The one-time key: the first 32 bytes of block 0. */
INLINE void aead_otk(intnat b, const uint8_t *key, const uint8_t *nonce, uint8_t otk[64])
{
  memset(otk, 0, 64);
  builds[b].chacha(key, nonce, 0, otk, otk, 64);
}

/* [dst] := the plaintext at [src] encrypted from block 1, then its tag. */
value lw_aead_seal(value build, value key, value nonce, value aad, value src, value dst)
{
  intnat b = Long_val(build), len = (intnat)caml_string_length(src);
  const uint8_t *k = (const uint8_t *)String_val(key), *n = (const uint8_t *)String_val(nonce);
  uint8_t otk[64];
  aead_otk(b, k, n, otk);
  builds[b].chacha(k, n, 1, (const uint8_t *)String_val(src), Bytes_val(dst), len);
  aead_tag(otk, (const uint8_t *)String_val(aad), (intnat)caml_string_length(aad), Bytes_val(dst),
           len, Bytes_val(dst) + len);
  return Val_unit;
}

/* [dst] := the [ciphertext || tag] at [src] decrypted, and 1 when the
   tag verifies, 0 when it does not, compared without a branch. The
   caller drops [dst] on 0. */
value lw_aead_open(value build, value key, value nonce, value aad, value src, value dst)
{
  intnat b = Long_val(build), len = (intnat)caml_string_length(src) - 16;
  const uint8_t *k = (const uint8_t *)String_val(key), *n = (const uint8_t *)String_val(nonce);
  const uint8_t *ct = (const uint8_t *)String_val(src);
  uint8_t otk[64], tag[16];
  aead_otk(b, k, n, otk);
  aead_tag(otk, (const uint8_t *)String_val(aad), (intnat)caml_string_length(aad), ct, len, tag);
  uint32_t diff = 0;
#pragma GCC unroll 16
  for (int i = 0; i < 16; i++)
    diff |= (uint32_t)(tag[i] ^ ct[len + i]);
  builds[b].chacha(k, n, 1, ct, Bytes_val(dst), len);
  return Val_long(((diff - 1) >> 31) & 1);
}

value lw_aead_seal_byte(value *argv, int argn)
{
  (void)argn;
  return lw_aead_seal(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

value lw_aead_open_byte(value *argv, int argn)
{
  (void)argn;
  return lw_aead_open(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* ------------------------------------------------------------------ */
/* X25519                                                              */
/* ------------------------------------------------------------------ */

/* An element of GF(2^255 - 19) as five 51-bit limbs, least significant
   first. Sums and differences may run a few bits over 51 until the next
   multiplication carries them back. */
typedef uint64_t fe[5];

#define M51 0x7ffffffffffffULL

INLINE void fe_frombytes(fe h, const uint8_t *s)
{
  uint64_t t0 = le64(s), t1 = le64(s + 8), t2 = le64(s + 16), t3 = le64(s + 24);
  /* bit 255 is masked, as RFC 7748 asks; a value >= p is kept as is and
     reduced by the arithmetic */
  h[0] = t0 & M51;
  h[1] = ((t0 >> 51) | (t1 << 13)) & M51;
  h[2] = ((t1 >> 38) | (t2 << 26)) & M51;
  h[3] = ((t2 >> 25) | (t3 << 39)) & M51;
  h[4] = (t3 >> 12) & M51;
}

INLINE void fe_carry(uint64_t t[5])
{
  t[1] += t[0] >> 51;
  t[0] &= M51;
  t[2] += t[1] >> 51;
  t[1] &= M51;
  t[3] += t[2] >> 51;
  t[2] &= M51;
  t[4] += t[3] >> 51;
  t[3] &= M51;
  t[0] += 19 * (t[4] >> 51);
  t[4] &= M51;
}

/* The unique representative below p, little-endian. */
INLINE void fe_tobytes(uint8_t *s, const fe h)
{
  uint64_t t[5];
  memcpy(t, h, sizeof t);
  fe_carry(t);
  fe_carry(t);
  /* now 0 <= t < 2^255; adding 19 carries into bit 255 exactly when t >= p */
  t[0] += 19;
  fe_carry(t);
  /* 19 <= t + 19 mod ... ; add 2^255 - 19 and drop bit 255 */
  t[0] += 0x8000000000000ULL - 19;
  t[1] += 0x8000000000000ULL - 1;
  t[2] += 0x8000000000000ULL - 1;
  t[3] += 0x8000000000000ULL - 1;
  t[4] += 0x8000000000000ULL - 1;
  t[1] += t[0] >> 51;
  t[0] &= M51;
  t[2] += t[1] >> 51;
  t[1] &= M51;
  t[3] += t[2] >> 51;
  t[2] &= M51;
  t[4] += t[3] >> 51;
  t[3] &= M51;
  t[4] &= M51;
  put_le64(s, t[0] | (t[1] << 51));
  put_le64(s + 8, (t[1] >> 13) | (t[2] << 38));
  put_le64(s + 16, (t[2] >> 26) | (t[3] << 25));
  put_le64(s + 24, (t[3] >> 39) | (t[4] << 12));
}

/* The five-limb loops are unrolled, so a ladder step runs straight
   through. */
INLINE void fe_add(fe o, const fe a, const fe b)
{
#pragma GCC unroll 5
  for (int i = 0; i < 5; i++)
    o[i] = a[i] + b[i];
}

/* a - b + 2p, so no limb goes negative for a [b] fresh from a product. */
INLINE void fe_sub(fe o, const fe a, const fe b)
{
  o[0] = a[0] + 0xfffffffffffdaULL - b[0];
#pragma GCC unroll 5
  for (int i = 1; i < 5; i++)
    o[i] = a[i] + 0xffffffffffffeULL - b[i];
}

INLINE void fe_reduce(fe o, u128 t0, u128 t1, u128 t2, u128 t3, u128 t4)
{
  uint64_t r0, r1, r2, r3, r4, c;
  r0 = (uint64_t)t0 & M51;
  t1 += (uint64_t)(t0 >> 51);
  r1 = (uint64_t)t1 & M51;
  t2 += (uint64_t)(t1 >> 51);
  r2 = (uint64_t)t2 & M51;
  t3 += (uint64_t)(t2 >> 51);
  r3 = (uint64_t)t3 & M51;
  t4 += (uint64_t)(t3 >> 51);
  r4 = (uint64_t)t4 & M51;
  c = (uint64_t)(t4 >> 51);
  r0 += c * 19;
  c = r0 >> 51;
  r0 &= M51;
  r1 += c;
  o[0] = r0;
  o[1] = r1;
  o[2] = r2;
  o[3] = r3;
  o[4] = r4;
}

/* [o] may be [a] or [b]: both are read before [o] is written. */
static void fe_mul(fe o, const fe a, const fe b)
{
  uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
  u128 t0 = (u128)a0 * b0;
  u128 t1 = (u128)a0 * b1 + (u128)a1 * b0;
  u128 t2 = (u128)a0 * b2 + (u128)a2 * b0 + (u128)a1 * b1;
  u128 t3 = (u128)a0 * b3 + (u128)a3 * b0 + (u128)a1 * b2 + (u128)a2 * b1;
  u128 t4 = (u128)a0 * b4 + (u128)a4 * b0 + (u128)a3 * b1 + (u128)a1 * b3 + (u128)a2 * b2;
  a1 *= 19;
  a2 *= 19;
  a3 *= 19;
  a4 *= 19;
  t0 += (u128)a4 * b1 + (u128)a1 * b4 + (u128)a2 * b3 + (u128)a3 * b2;
  t1 += (u128)a4 * b2 + (u128)a2 * b4 + (u128)a3 * b3;
  t2 += (u128)a4 * b3 + (u128)a3 * b4;
  t3 += (u128)a4 * b4;
  fe_reduce(o, t0, t1, t2, t3, t4);
}

/* [a] squared [n] times. */
static void fe_sqn(fe o, const fe a, int n)
{
  uint64_t x[5];
  memcpy(x, a, sizeof x);
  for (int i = 0; i < n; i++) {
    uint64_t a0 = x[0], a1 = x[1], a2 = x[2], a3 = x[3], a4 = x[4];
    uint64_t d0 = 2 * a0, d1 = 2 * a1, a3_19 = 19 * a3, a4_19 = 19 * a4;
    u128 t0 = (u128)a0 * a0 + (u128)d1 * a4_19 + (u128)(2 * a2) * a3_19;
    u128 t1 = (u128)d0 * a1 + (u128)(2 * a2) * a4_19 + (u128)a3 * a3_19;
    u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)(2 * a3) * a4_19;
    u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
    u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
    fe_reduce(x, t0, t1, t2, t3, t4);
  }
  memcpy(o, x, sizeof x);
}

INLINE void fe_mul121665(fe o, const fe a)
{
  fe_reduce(o, (u128)a[0] * 121665, (u128)a[1] * 121665, (u128)a[2] * 121665,
            (u128)a[3] * 121665, (u128)a[4] * 121665);
}

/* Swap [a] and [b] when [swap] is 1, under its all-ones mask. */
INLINE void fe_cswap(fe a, fe b, uint64_t swap)
{
  uint64_t mask = 0 - swap;
#pragma GCC unroll 5
  for (int i = 0; i < 5; i++) {
    uint64_t t = mask & (a[i] ^ b[i]);
    a[i] ^= t;
    b[i] ^= t;
  }
}

/* z^(p - 2) = z^-1, and 0 for z = 0: the fixed addition chain for
   2^255 - 21. */
static __attribute__((noinline)) void fe_invert(fe o, const fe z)
{
  fe a, b, c, t;
  fe_sqn(a, z, 1);     /* 2 */
  fe_sqn(t, a, 2);     /* 8 */
  fe_mul(b, t, z);     /* 9 */
  fe_mul(a, b, a);     /* 11 */
  fe_sqn(t, a, 1);     /* 22 */
  fe_mul(b, t, b);     /* 2^5 - 1 */
  fe_sqn(t, b, 5);     /* 2^10 - 2^5 */
  fe_mul(b, t, b);     /* 2^10 - 1 */
  fe_sqn(t, b, 10);    /* 2^20 - 2^10 */
  fe_mul(c, t, b);     /* 2^20 - 1 */
  fe_sqn(t, c, 20);    /* 2^40 - 2^20 */
  fe_mul(t, t, c);     /* 2^40 - 1 */
  fe_sqn(t, t, 10);    /* 2^50 - 2^10 */
  fe_mul(b, t, b);     /* 2^50 - 1 */
  fe_sqn(t, b, 50);    /* 2^100 - 2^50 */
  fe_mul(c, t, b);     /* 2^100 - 1 */
  fe_sqn(t, c, 100);   /* 2^200 - 2^100 */
  fe_mul(t, t, c);     /* 2^200 - 1 */
  fe_sqn(t, t, 50);    /* 2^250 - 2^50 */
  fe_mul(t, t, b);     /* 2^250 - 1 */
  fe_sqn(t, t, 5);     /* 2^255 - 2^5 */
  fe_mul(o, t, a);     /* 2^255 - 21 */
}

/* RFC 7748 §5: the clamped scalar's ladder over u, 255 steps whatever
   its bits, each step's swap a mask. */
static void x25519(uint8_t out[32], const uint8_t scalar[32], const uint8_t point[32])
{
  uint8_t k[32];
  memcpy(k, scalar, 32);
  k[0] &= 248;
  k[31] = (uint8_t)((k[31] & 127) | 64);
  fe x1, x2 = { 1 }, z2 = { 0 }, x3, z3 = { 1 };
  fe a, aa, b, bb, e, c, d, da, cb;
  fe_frombytes(x1, point);
  memcpy(x3, x1, sizeof x3);
  uint64_t swap = 0;
  for (int t = 254; t >= 0; t--) {
    uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = bit;
    fe_add(a, x2, z2);
    fe_sqn(aa, a, 1);
    fe_sub(b, x2, z2);
    fe_sqn(bb, b, 1);
    fe_sub(e, aa, bb);
    fe_add(c, x3, z3);
    fe_sub(d, x3, z3);
    fe_mul(da, d, a);
    fe_mul(cb, c, b);
    fe_add(x3, da, cb);
    fe_sqn(x3, x3, 1);
    fe_sub(z3, da, cb);
    fe_sqn(z3, z3, 1);
    fe_mul(z3, z3, x1);
    fe_mul(x2, aa, bb);
    fe_mul121665(z2, e);
    fe_add(z2, z2, aa);
    fe_mul(z2, z2, e);
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);
  fe_invert(z2, z2);
  fe_mul(x2, x2, z2);
  fe_tobytes(out, x2);
}

value lw_x25519(value scalar, value point, value out)
{
  x25519(Bytes_val(out), (const uint8_t *)String_val(scalar), (const uint8_t *)String_val(point));
  return Val_unit;
}
