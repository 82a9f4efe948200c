/* AES-128 and the DPF's AES-MMO tree steps.

   MMO (Matyas-Meyer-Oseas) under the fixed key: mmo(s, w) = AES(x) ^ x
   with x = s and [w] XORed into byte 0. The DPF's tree is built from
   it. A node's children are mmo(s, 1) and mmo(s, 2), and a terminal
   node's 128 leaf bits are mmo(s, 3). The entry points below cover many
   nodes per call, so OCaml crosses into C once per tree level or once
   per block of terminal nodes, not once per node:
   - [lw_aes_level] expands n parent seeds into 2n children. It takes
     each child's control bit from the low bit of its byte 15 and clears
     it, then applies the level's correction word to both children and
     its two correction bits to theirs, under a mask made from the
     parent's control bit.
   - [lw_aes_leaves] runs the terminal MMO of n seeds, applies the leaf
     correction word under the same mask and unpacks leaf bits
     [from, from + count) of each node to 0/1 bytes.
   - [lw_aes_gen] is the client's key generation, one call per key
     pair: both parties' seeds walk down the tree together, each level
     picking the child on the query index's path under a mask splatted
     from its bit, and the terminal leaf correction builds its one-hot
     by comparing all 128 positions with the index's low bits.

   Seeds, control bits and the query index are secret. They are only
   ever data: loaded, XORed, shifted by public amounts and turned into
   all-zero or all-one masks by arithmetic. No table is indexed by them
   and nothing branches on them. The only control flow is [for] loops
   over the public node count or tree depth, so the instruction stream
   and the memory trace are functions of those alone. The analysis tests reject any branching keyword or
   short-circuit operator in this file, so platform choices are made
   with [#ifdef] alone.

   One body, one build per instruction set. [level_body], [leaves_body],
   [gen_body] and [mmo_body] are written once and take the build's block
   cipher:
   - "aesni": AES-NI on x86-64, eight blocks in flight;
   - "bitsliced": portable C from FIPS-197 for any other CPU. Four
     blocks at once are held as eight 64-bit bit planes for all ten
     rounds (see bearssl.org/constanttime.html): SubBytes is the
     Boyar-Peralta S-box circuit over the planes, and ShiftRows,
     MixColumns and AddRoundKey are fixed shifts, masks and XORs.
   AES-NI runs each round as a single instruction, which takes the same
   time whatever its data. Both builds compute the same function, which
   the tests check byte for byte on every build the host runs. The CPU
   alone picks the build: [lw_aes_first] reads CPUID once, when [Aes128]
   is initialised, and every call runs the first build the CPU supports.
   No option or environment variable reaches it. Tests and benchmarks
   may name any build the CPU runs. Other CPUs, aarch64 among them, run
   the bitsliced build; it has been tested on x86-64 only.

   The key schedule is computed once, portably and in constant time (its
   SubWord is the bitsliced S-box), as 11 round keys of 16 bytes in
   FIPS-197 byte order, which the AES-NI build loads as is, followed
   by the same round keys in the bitsliced build's bit-plane form. */

#include <stdint.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#ifdef __x86_64__
#include <immintrin.h>
#endif

#define INLINE static inline __attribute__((always_inline))
/* A key is 11 round keys in FIPS-197 byte order, which the AES-NI
   build loads, then the same 11 in bit-plane form for the bitsliced one. */
#define PLANE_KEYS 176

typedef void enc_fn(const uint8_t *rk, uint8_t *buf, intnat blocks);

INLINE uint64_t load64(const uint8_t *p)
{
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

INLINE void store64(uint8_t *p, uint64_t v) { memcpy(p, &v, 8); }

/* ------------------------------------------------------------------ */
/* The bitsliced build                                                 */
/* ------------------------------------------------------------------ */

/* Transpose the 8x8 bit matrix whose row r is byte r of [x] (Hacker's
   Delight, 7-3): afterwards bit c of byte r is bit r of input byte c. */
INLINE uint64_t transpose8(uint64_t x)
{
  uint64_t t;
  t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x = x ^ t ^ (t << 28);
  return x;
}

/* Bit plane [b] of 64 bytes: its bit [i] is bit [b] of byte [i]. */
INLINE void to_planes(const uint8_t *s, uint64_t q[8])
{
  uint64_t t[8];
  for (int g = 0; g < 8; g++)
    t[g] = transpose8(load64(s + 8 * g));
  for (int b = 0; b < 8; b++) {
    q[b] = 0;
    for (int g = 0; g < 8; g++)
      q[b] |= ((t[g] >> (8 * b)) & 0xff) << (8 * g);
  }
}

INLINE void from_planes(const uint64_t q[8], uint8_t *s)
{
  for (int g = 0; g < 8; g++) {
    uint64_t t = 0;
    for (int b = 0; b < 8; b++)
      t |= ((q[b] >> (8 * g)) & 0xff) << (8 * b);
    store64(s + 8 * g, transpose8(t));
  }
}

/* The AES S-box on the 64 bytes of eight bit planes at once, as the
   Boyar-Peralta circuit (J. Boyar and R. Peralta, "A depth-16 circuit
   for the AES S-box", 2011): 32 AND and 83 XOR/XNOR gates. */
static void sbox_planes(uint64_t q[8])
{
  uint64_t x0 = q[7], x1 = q[6], x2 = q[5], x3 = q[4];
  uint64_t x4 = q[3], x5 = q[2], x6 = q[1], x7 = q[0];
  uint64_t y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15, y16, y17, y18, y19,
      y20, y21;
  uint64_t z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16, z17;
  uint64_t t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15, t16, t17, t18,
      t19, t20, t21, t22, t23, t24, t25, t26, t27, t28, t29, t30, t31, t32, t33, t34, t35, t36,
      t37, t38, t39, t40, t41, t42, t43, t44, t45, t46, t47, t48, t49, t50, t51, t52, t53, t54,
      t55, t56, t57, t58, t59, t60, t61, t62, t63, t64, t65, t66, t67;
  uint64_t s0, s1, s2, s3, s4, s5, s6, s7;

  /* top linear transform */
  y14 = x3 ^ x5;
  y13 = x0 ^ x6;
  y9 = x0 ^ x3;
  y8 = x0 ^ x5;
  t0 = x1 ^ x2;
  y1 = t0 ^ x7;
  y4 = y1 ^ x3;
  y12 = y13 ^ y14;
  y2 = y1 ^ x0;
  y5 = y1 ^ x6;
  y3 = y5 ^ y8;
  t1 = x4 ^ y12;
  y15 = t1 ^ x5;
  y20 = t1 ^ x1;
  y6 = y15 ^ x7;
  y10 = y15 ^ t0;
  y11 = y20 ^ y9;
  y7 = x7 ^ y11;
  y17 = y10 ^ y11;
  y19 = y10 ^ y8;
  y16 = t0 ^ y11;
  y21 = y13 ^ y16;
  y18 = x0 ^ y16;

  /* shared non-linear middle: inversion in GF(2^4)^2 */
  t2 = y12 & y15;
  t3 = y3 & y6;
  t4 = t3 ^ t2;
  t5 = y4 & x7;
  t6 = t5 ^ t2;
  t7 = y13 & y16;
  t8 = y5 & y1;
  t9 = t8 ^ t7;
  t10 = y2 & y7;
  t11 = t10 ^ t7;
  t12 = y9 & y11;
  t13 = y14 & y17;
  t14 = t13 ^ t12;
  t15 = y8 & y10;
  t16 = t15 ^ t12;
  t17 = t4 ^ t14;
  t18 = t6 ^ t16;
  t19 = t9 ^ t14;
  t20 = t11 ^ t16;
  t21 = t17 ^ y20;
  t22 = t18 ^ y19;
  t23 = t19 ^ y21;
  t24 = t20 ^ y18;

  t25 = t21 ^ t22;
  t26 = t21 & t23;
  t27 = t24 ^ t26;
  t28 = t25 & t27;
  t29 = t28 ^ t22;
  t30 = t23 ^ t24;
  t31 = t22 ^ t26;
  t32 = t31 & t30;
  t33 = t32 ^ t24;
  t34 = t23 ^ t33;
  t35 = t27 ^ t33;
  t36 = t24 & t35;
  t37 = t36 ^ t34;
  t38 = t27 ^ t36;
  t39 = t29 & t38;
  t40 = t25 ^ t39;

  t41 = t40 ^ t37;
  t42 = t29 ^ t33;
  t43 = t29 ^ t40;
  t44 = t33 ^ t37;
  t45 = t42 ^ t41;
  z0 = t44 & y15;
  z1 = t37 & y6;
  z2 = t33 & x7;
  z3 = t43 & y16;
  z4 = t40 & y1;
  z5 = t29 & y7;
  z6 = t42 & y11;
  z7 = t45 & y17;
  z8 = t41 & y10;
  z9 = t44 & y12;
  z10 = t37 & y3;
  z11 = t33 & y4;
  z12 = t43 & y13;
  z13 = t40 & y5;
  z14 = t29 & y2;
  z15 = t42 & y9;
  z16 = t45 & y14;
  z17 = t41 & y8;

  /* bottom linear transform, the affine constant folded into XNORs */
  t46 = z15 ^ z16;
  t47 = z10 ^ z11;
  t48 = z5 ^ z13;
  t49 = z9 ^ z10;
  t50 = z2 ^ z12;
  t51 = z2 ^ z5;
  t52 = z7 ^ z8;
  t53 = z0 ^ z3;
  t54 = z6 ^ z7;
  t55 = z16 ^ z17;
  t56 = z12 ^ t48;
  t57 = t50 ^ t53;
  t58 = z4 ^ t46;
  t59 = z3 ^ t54;
  t60 = t46 ^ t57;
  t61 = z14 ^ t57;
  t62 = t52 ^ t58;
  t63 = t49 ^ t58;
  t64 = z4 ^ t59;
  t65 = t61 ^ t62;
  t66 = z1 ^ t63;
  s0 = t59 ^ t63;
  s6 = t56 ^ ~t62;
  s7 = t48 ^ ~t60;
  t67 = t64 ^ t65;
  s3 = t53 ^ t66;
  s4 = t51 ^ t66;
  s5 = t47 ^ t65;
  s1 = t64 ^ ~s3;
  s2 = t55 ^ ~t67;

  q[7] = s0;
  q[6] = s1;
  q[5] = s2;
  q[4] = s3;
  q[3] = s4;
  q[2] = s5;
  q[1] = s6;
  q[0] = s7;
}

static void sub_bytes64(uint8_t *s)
{
  uint64_t q[8];
  to_planes(s, q);
  sbox_planes(q);
  from_planes(q, s);
}

/* The rounds stay in bit-plane form: bit [16 blk + r + 4c] of a plane is
   row r, column c (FIPS-197 §3.4) of block [blk], so within each 16-bit
   lane a nibble is a column and a bit of it a row. */

/* Rotate each 16-bit lane right by [s] (0 < s < 16). */
INLINE uint64_t rot_lanes(uint64_t x, int s)
{
  uint64_t lo = (0xffffULL >> s) * 0x0001000100010001ULL;
  return ((x >> s) & lo) | ((x << (16 - s)) & ~lo);
}

/* ShiftRows: row r rotates left by r columns, so bit [r + 4c] takes bit
   [r + 4(c + r)], a right rotation of the lane by 4r. */
INLINE void shift_rows(uint64_t q[8])
{
  const uint64_t row = 0x1111111111111111ULL;
  for (int b = 0; b < 8; b++) {
    uint64_t x = q[b];
    q[b] = (x & row) | rot_lanes(x & (row << 1), 4) | rot_lanes(x & (row << 2), 8) |
           rot_lanes(x & (row << 3), 12);
  }
}

/* Row r of each column takes row r + k (mod 4): a rotation inside each
   nibble. */
INLINE uint64_t rot_rows1(uint64_t x)
{
  return ((x >> 1) & 0x7777777777777777ULL) | ((x << 3) & 0x8888888888888888ULL);
}

INLINE uint64_t rot_rows2(uint64_t x)
{
  return ((x >> 2) & 0x3333333333333333ULL) | ((x << 2) & 0xCCCCCCCCCCCCCCCCULL);
}

INLINE uint64_t rot_rows3(uint64_t x)
{
  return ((x >> 3) & 0x1111111111111111ULL) | ((x << 1) & 0xEEEEEEEEEEEEEEEEULL);
}

/* MixColumns: b[r] = 2(a[r] ^ a[r+1]) ^ a[r+1] ^ a[r+2] ^ a[r+3]. Doubling
   in GF(2^8) moves plane b to b + 1 and folds plane 7 into planes 0, 1, 3
   and 4 (the polynomial 0x11b). */
INLINE void mix_columns(uint64_t q[8])
{
  uint64_t r1[8], t[8];
  for (int b = 0; b < 8; b++) {
    r1[b] = rot_rows1(q[b]);
    t[b] = q[b] ^ r1[b];
  }
  uint64_t d[8] = { t[7], t[0] ^ t[7], t[1], t[2] ^ t[7], t[3] ^ t[7], t[4], t[5], t[6] };
  for (int b = 0; b < 8; b++)
    q[b] = d[b] ^ r1[b] ^ rot_rows2(q[b]) ^ rot_rows3(q[b]);
}

/* Round key [r] in plane form, four copies, at [PLANE_KEYS + 64 r]. */
INLINE void add_round_key(uint64_t q[8], const uint8_t *k)
{
  for (int b = 0; b < 8; b++)
    q[b] ^= load64(k + 8 * b);
}

/* Four blocks in place. */
static void enc4_bitsliced(const uint8_t *rk, uint8_t *s)
{
  const uint8_t *pk = rk + PLANE_KEYS;
  uint64_t q[8];
  to_planes(s, q);
  add_round_key(q, pk);
  for (int r = 1; r < 10; r++) {
    sbox_planes(q);
    shift_rows(q);
    mix_columns(q);
    add_round_key(q, pk + 64 * r);
  }
  sbox_planes(q);
  shift_rows(q);
  add_round_key(q, pk + 640);
  from_planes(q, s);
}

static void enc_bitsliced(const uint8_t *rk, uint8_t *buf, intnat blocks)
{
  intnat full = blocks & ~(intnat)3;
  for (intnat b = 0; b < full; b += 4)
    enc4_bitsliced(rk, buf + 16 * b);
  /* a last group of one to three blocks runs padded to four */
  for (intnat b = full; b < blocks; b++) {
    uint8_t t[64] = { 0 };
    memcpy(t, buf + 16 * b, 16);
    enc4_bitsliced(rk, t);
    memcpy(buf + 16 * b, t, 16);
  }
}

/* FIPS-197 §5.2. Public rounds and positions only; SubWord is the
   bitsliced S-box, so no table is indexed by key bytes. */
static void expand_key(const uint8_t *key, uint8_t *rk)
{
  static const uint8_t rcon[10] = { 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36 };
  memcpy(rk, key, 16);
  for (int i = 1; i < 11; i++) {
    const uint8_t *p = rk + 16 * (i - 1);
    uint8_t *w = rk + 16 * i;
    uint8_t t[64] = { 0 };
    t[0] = p[13];
    t[1] = p[14];
    t[2] = p[15];
    t[3] = p[12];
    sub_bytes64(t);
    t[0] ^= rcon[i - 1];
    for (int j = 0; j < 4; j++)
      w[j] = p[j] ^ t[j];
    for (int j = 4; j < 16; j++)
      w[j] = p[j] ^ w[j - 4];
  }
  for (int i = 0; i < 11; i++) {
    uint8_t t[64];
    uint64_t q[8];
    for (int b = 0; b < 4; b++)
      memcpy(t + 16 * b, rk + 16 * i, 16);
    to_planes(t, q);
    for (int b = 0; b < 8; b++)
      store64(rk + PLANE_KEYS + 64 * i + 8 * b, q[b]);
  }
}

/* ------------------------------------------------------------------ */
/* The AES-NI build                                                    */
/* ------------------------------------------------------------------ */

#ifdef __x86_64__
#define TARGET_AESNI __attribute__((target("aes,sse2")))

/* Eight blocks in flight, then one at a time. */
TARGET_AESNI static void enc_aesni(const uint8_t *rk, uint8_t *buf, intnat blocks)
{
  __m128i k[11];
  for (int r = 0; r < 11; r++)
    k[r] = _mm_loadu_si128((const __m128i *)(rk + 16 * r));
  intnat full = blocks & ~(intnat)7;
  for (intnat b = 0; b < full; b += 8) {
    __m128i s[8];
    for (int j = 0; j < 8; j++)
      s[j] = _mm_xor_si128(_mm_loadu_si128((const __m128i *)(buf + 16 * (b + j))), k[0]);
    for (int r = 1; r < 10; r++)
      for (int j = 0; j < 8; j++)
        s[j] = _mm_aesenc_si128(s[j], k[r]);
    for (int j = 0; j < 8; j++)
      _mm_storeu_si128((__m128i *)(buf + 16 * (b + j)), _mm_aesenclast_si128(s[j], k[10]));
  }
  for (intnat b = full; b < blocks; b++) {
    __m128i s = _mm_xor_si128(_mm_loadu_si128((const __m128i *)(buf + 16 * b)), k[0]);
    for (int r = 1; r < 10; r++)
      s = _mm_aesenc_si128(s, k[r]);
    _mm_storeu_si128((__m128i *)(buf + 16 * b), _mm_aesenclast_si128(s, k[10]));
  }
}
#endif

/* ------------------------------------------------------------------ */
/* The one body                                                        */
/* ------------------------------------------------------------------ */

/* Nodes per pass through the cipher: a level pass is 16 blocks. */
#define CHUNK 8

/* y := AES(x) ^ x over [blocks] blocks. */
INLINE void mmo_blocks(enc_fn *enc, const uint8_t *rk, const uint8_t *x, uint8_t *y, intnat blocks)
{
  memcpy(y, x, 16 * blocks);
  enc(rk, y, blocks);
  for (intnat o = 0; o < 16 * blocks; o += 8)
    store64(y + o, load64(y + o) ^ load64(x + o));
}

/* Block [i] of [x] is seed [i] with [tweak] XORed into its byte 0. */
INLINE void tweak_seeds(const uint8_t *src, intnat m, int tweak, uint8_t *x, intnat stride)
{
  for (intnat i = 0; i < m; i++) {
    memcpy(x + stride * i, src + 16 * i, 16);
    x[stride * i] ^= (uint8_t)tweak;
  }
}

/* min(n - i, CHUNK) by arithmetic */
INLINE intnat chunk_len(intnat n, intnat i)
{
  intnat m = n - i;
  return m - ((m - CHUNK) & -(intnat)(m > CHUNK));
}

INLINE void mmo_body(enc_fn *enc, const uint8_t *rk, int tweak, const uint8_t *src, uint8_t *dst,
                     intnat n)
{
  uint8_t x[16 * CHUNK], y[16 * CHUNK];
  for (intnat i = 0; i < n; i += CHUNK) {
    intnat m = chunk_len(n, i);
    tweak_seeds(src + 16 * i, m, tweak, x, 16);
    mmo_blocks(enc, rk, x, y, m);
    memcpy(dst + 16 * i, y, 16 * m);
  }
}

/* Child [c] of a raw expansion: take its control bit and clear it, then
   add the correction word and bit under the parent's mask. */
INLINE void correct_child(uint8_t *d, const uint8_t *raw, uint64_t mask, uint64_t cw0,
                          uint64_t cw1, uint8_t cw_bit, uint8_t *t)
{
  uint8_t bit = raw[15] & 1;
  memcpy(d, raw, 16);
  d[15] = raw[15] & 0xfe;
  store64(d, load64(d) ^ (cw0 & mask));
  store64(d + 8, load64(d + 8) ^ (cw1 & mask));
  *t = bit ^ (cw_bit & (uint8_t)mask);
}

INLINE void level_body(enc_fn *enc, const uint8_t *rk, const uint8_t *src, const uint8_t *ts,
                       intnat n, const uint8_t *cw, intnat cw_bits, uint8_t *dst, uint8_t *t_out)
{
  /* both children of a chunk's parents go through the cipher together */
  uint8_t x[32 * CHUNK], y[32 * CHUNK];
  uint64_t cw0 = load64(cw), cw1 = load64(cw + 8);
  uint8_t cwl = (uint8_t)(cw_bits & 1), cwr = (uint8_t)((cw_bits >> 1) & 1);
  for (intnat i = 0; i < n; i += CHUNK) {
    intnat m = chunk_len(n, i);
    tweak_seeds(src + 16 * i, m, 1, x, 32);
    tweak_seeds(src + 16 * i, m, 2, x + 16, 32);
    mmo_blocks(enc, rk, x, y, 2 * m);
    for (intnat j = 0; j < m; j++) {
      uint64_t mask = (uint64_t)0 - (uint64_t)(ts[i + j] & 1);
      uint8_t *d = dst + 32 * (i + j);
      correct_child(d, y + 32 * j, mask, cw0, cw1, cwl, t_out + 2 * (i + j));
      correct_child(d + 16, y + 32 * j + 16, mask, cw0, cw1, cwr, t_out + 2 * (i + j) + 1);
    }
  }
}

/* The eight bits of [b], one per byte, low bit first. */
INLINE uint64_t spread_bits(uint64_t b)
{
  b = (b | (b << 28)) & 0x0000000F0000000FULL;
  b = (b | (b << 14)) & 0x0003000300030003ULL;
  return (b | (b << 7)) & 0x0101010101010101ULL;
}

INLINE void leaves_body(enc_fn *enc, const uint8_t *rk, const uint8_t *src, const uint8_t *ts,
                        intnat n, const uint8_t *cw, intnat from, intnat count, uint8_t *dst)
{
  uint8_t x[16 * CHUNK], y[16 * CHUNK], bits[128];
  uint64_t cw0 = load64(cw), cw1 = load64(cw + 8);
  for (intnat i = 0; i < n; i += CHUNK) {
    intnat m = chunk_len(n, i);
    tweak_seeds(src + 16 * i, m, 3, x, 16);
    mmo_blocks(enc, rk, x, y, m);
    for (intnat j = 0; j < m; j++) {
      uint64_t mask = (uint64_t)0 - (uint64_t)(ts[i + j] & 1);
      uint64_t w0 = load64(y + 16 * j) ^ (cw0 & mask);
      uint64_t w1 = load64(y + 16 * j + 8) ^ (cw1 & mask);
      for (int k = 0; k < 8; k++) {
        store64(bits + 8 * k, spread_bits((w0 >> (8 * k)) & 0xff));
        store64(bits + 64 + 8 * k, spread_bits((w1 >> (8 * k)) & 0xff));
      }
      memcpy(dst + count * (i + j), bits + from, count);
    }
  }
}

/* Both parties' key generation for a point at [alpha] in a domain of
   [d] bits, the tree running [levels] levels down. [seeds] holds the
   two root seeds, party 0's then party 1's; their control-bit positions
   are cleared, they are copied out as the roots, and they end as the
   two terminal seeds. Per level both seeds expand, the child [alpha]
   descends into (keep) and the other (lose) are picked under a mask
   splatted from [alpha]'s bit, the seed correction word is the XOR of
   the two lose children, and each keep child takes it under its
   parent's control-bit mask. The 16-byte leaf correction is the XOR of
   both terminal seeds' leaf blocks and the one-hot of [alpha_lo],
   built by comparing all 128 positions with it arithmetically.

   The seeds stay in registers as 64-bit words, low half first; byte
   0, where the tweak goes, is the low byte of the low half and the
   control bit, byte 15's low bit, is bit 56 of the high half. Only the
   cipher's blocks go through memory. */
INLINE void gen_body(enc_fn *enc, const uint8_t *rk, uint8_t *seeds, intnat alpha, intnat d,
                     intnat levels, intnat alpha_lo, uint8_t *root0, uint8_t *root1,
                     uint8_t *cw, uint8_t *cw_bits, uint8_t *leaf)
{
  const uint64_t cbit = (uint64_t)1 << 56;
  uint8_t y[64];
  uint64_t x[8], o[8];
  uint64_t a0 = load64(seeds), b0 = load64(seeds + 8) & ~cbit;
  uint64_t a1 = load64(seeds + 16), b1 = load64(seeds + 24) & ~cbit;
  uint64_t t0 = 0, t1 = 1;
  store64(root0, a0);
  store64(root0 + 8, b0);
  store64(root1, a1);
  store64(root1 + 8, b1);
  for (intnat l = 0; l < levels; l++) {
    /* the MMO inputs L0 R0 L1 R1: each seed under tweaks 1 and 2 */
    x[0] = a0 ^ 1;
    x[1] = b0;
    x[2] = a0 ^ 2;
    x[3] = b0;
    x[4] = a1 ^ 1;
    x[5] = b1;
    x[6] = a1 ^ 2;
    x[7] = b1;
    for (int i = 0; i < 8; i++)
      store64(y + 8 * i, x[i]);
    enc(rk, y, 4);
    for (int i = 0; i < 8; i++)
      o[i] = load64(y + 8 * i) ^ x[i];
    uint64_t tl0 = (o[1] >> 56) & 1, tr0 = (o[3] >> 56) & 1;
    uint64_t tl1 = (o[5] >> 56) & 1, tr1 = (o[7] >> 56) & 1;
    for (int i = 1; i < 8; i += 2)
      o[i] &= ~cbit;
    uint64_t a = (uint64_t)(alpha >> (d - 1 - l)) & 1, m = (uint64_t)0 - a;
    uint64_t c_lo = ((o[0] & m) | (o[2] & ~m)) ^ ((o[4] & m) | (o[6] & ~m));
    uint64_t c_hi = ((o[1] & m) | (o[3] & ~m)) ^ ((o[5] & m) | (o[7] & ~m));
    store64(cw + 16 * l, c_lo);
    store64(cw + 16 * l + 8, c_hi);
    uint64_t m0 = (uint64_t)0 - t0, m1 = (uint64_t)0 - t1;
    a0 = ((o[0] & ~m) | (o[2] & m)) ^ (c_lo & m0);
    b0 = ((o[1] & ~m) | (o[3] & m)) ^ (c_hi & m0);
    a1 = ((o[4] & ~m) | (o[6] & m)) ^ (c_lo & m1);
    b1 = ((o[5] & ~m) | (o[7] & m)) ^ (c_hi & m1);
    uint64_t tlc = tl0 ^ tl1 ^ a ^ 1, trc = tr0 ^ tr1 ^ a;
    cw_bits[l] = (uint8_t)(tlc | (trc << 1));
    uint64_t kc = (tlc & ~m) | (trc & m);
    t0 = ((tl0 & ~m) | (tr0 & m)) ^ (t0 & kc);
    t1 = ((tl1 & ~m) | (tr1 & m)) ^ (t1 & kc);
  }
  store64(seeds, a0);
  store64(seeds + 8, b0);
  store64(seeds + 16, a1);
  store64(seeds + 24, b1);
  /* the leaf blocks: both terminal seeds under tweak 3 */
  x[0] = a0 ^ 3;
  x[1] = b0;
  x[2] = a1 ^ 3;
  x[3] = b1;
  for (int i = 0; i < 4; i++)
    store64(y + 8 * i, x[i]);
  enc(rk, y, 2);
  /* position [p]'s byte is 1 exactly when p ^ alpha_lo is 0, and the
     multiply packs each 8 such bytes into the bits of one */
  uint8_t eq[128];
  for (int p = 0; p < 128; p++)
    eq[p] = (uint8_t)(((uint64_t)(p ^ alpha_lo) - 1) >> 63);
  uint64_t h[2] = { 0, 0 };
  for (int i = 0; i < 16; i++)
    h[i >> 3] |= ((load64(eq + 8 * i) * 0x0102040810204080ULL) >> 56) << (8 * (i & 7));
  store64(leaf, load64(y) ^ x[0] ^ load64(y + 16) ^ x[2] ^ h[0]);
  store64(leaf + 8, load64(y + 8) ^ x[1] ^ load64(y + 24) ^ x[3] ^ h[1]);
}

/* ------------------------------------------------------------------ */
/* Builds and dispatch                                                 */
/* ------------------------------------------------------------------ */

#define BUILD(name, attr)                                                                      \
  attr static void mmo_##name(const uint8_t *rk, int tweak, const uint8_t *src, uint8_t *dst,  \
                              intnat n)                                                        \
  {                                                                                            \
    mmo_body(enc_##name, rk, tweak, src, dst, n);                                              \
  }                                                                                            \
  attr static void level_##name(const uint8_t *rk, const uint8_t *src, const uint8_t *ts,      \
                                intnat n, const uint8_t *cw, intnat cw_bits, uint8_t *dst,     \
                                uint8_t *t_out)                                                \
  {                                                                                            \
    level_body(enc_##name, rk, src, ts, n, cw, cw_bits, dst, t_out);                           \
  }                                                                                            \
  attr static void leaves_##name(const uint8_t *rk, const uint8_t *src, const uint8_t *ts,     \
                                 intnat n, const uint8_t *cw, intnat from, intnat count,       \
                                 uint8_t *dst)                                                 \
  {                                                                                            \
    leaves_body(enc_##name, rk, src, ts, n, cw, from, count, dst);                             \
  }                                                                                            \
  attr static void gen_##name(const uint8_t *rk, uint8_t *seeds, intnat alpha, intnat d,       \
                              intnat levels, intnat alpha_lo, uint8_t *root0, uint8_t *root1,  \
                              uint8_t *cw, uint8_t *cw_bits, uint8_t *leaf)                    \
  {                                                                                            \
    gen_body(enc_##name, rk, seeds, alpha, d, levels, alpha_lo, root0, root1, cw, cw_bits,     \
             leaf);                                                                            \
  }

#ifdef __x86_64__
BUILD(aesni, TARGET_AESNI)
#endif
BUILD(bitsliced, )

struct build {
  const char *name;
  enc_fn *encrypt;
  void (*mmo)(const uint8_t *rk, int tweak, const uint8_t *src, uint8_t *dst, intnat n);
  void (*level)(const uint8_t *rk, const uint8_t *src, const uint8_t *ts, intnat n,
                const uint8_t *cw, intnat cw_bits, uint8_t *dst, uint8_t *t_out);
  void (*leaves)(const uint8_t *rk, const uint8_t *src, const uint8_t *ts, intnat n,
                 const uint8_t *cw, intnat from, intnat count, uint8_t *dst);
  void (*gen)(const uint8_t *rk, uint8_t *seeds, intnat alpha, intnat d, intnat levels,
              intnat alpha_lo, uint8_t *root0, uint8_t *root1, uint8_t *cw, uint8_t *cw_bits,
              uint8_t *leaf);
};

#define ROW(name) { #name, enc_##name, mmo_##name, level_##name, leaves_##name, gen_##name }

/* The builds in order of preference; each needs a subset of the CPU
   features of the one before it. */
static const struct build builds[] = {
#ifdef __x86_64__
  ROW(aesni),
#endif
  ROW(bitsliced),
};

#define BUILDS ((intnat)(sizeof builds / sizeof builds[0]))

value lw_aes_builds(value unit)
{
  (void)unit;
  const char *names[BUILDS + 1];
  for (intnat i = 0; i < BUILDS; i++)
    names[i] = builds[i].name;
  names[BUILDS] = NULL;
  return caml_copy_string_array(names);
}

/* The index of the first build this CPU runs: the number of builds
   before it whose features the CPU does not report. */
value lw_aes_first(value unit)
{
  (void)unit;
  intnat skip = 0;
#ifdef __x86_64__
  __builtin_cpu_init();
  skip = 1 - (intnat)(__builtin_cpu_supports("aes") != 0);
#endif
  return Val_long(skip);
}

/* [Aes128] checks the build index and every range before calling in. */

value lw_aes_expand_key(value key, value rk)
{
  expand_key((const uint8_t *)String_val(key), Bytes_val(rk));
  return Val_unit;
}

value lw_aes_encrypt(value build, value rk, value buf, value pos, value blocks)
{
  builds[Long_val(build)].encrypt(Bytes_val(rk), Bytes_val(buf) + Long_val(pos), Long_val(blocks));
  return Val_unit;
}

value lw_aes_mmo(value build, value rk, value tweak, value src, value src_pos, value dst,
                 value dst_pos, value n)
{
  builds[Long_val(build)].mmo(Bytes_val(rk), (int)(Long_val(tweak) & 0xff),
                              Bytes_val(src) + Long_val(src_pos),
                              Bytes_val(dst) + Long_val(dst_pos), Long_val(n));
  return Val_unit;
}

value lw_aes_mmo_byte(value *argv, int argn)
{
  (void)argn;
  return lw_aes_mmo(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7]);
}

value lw_aes_level(value build, value rk, value src, value src_pos, value ts, value ts_pos,
                   value n, value cw, value cw_pos, value cw_bits, value dst, value t_out)
{
  builds[Long_val(build)].level(Bytes_val(rk), Bytes_val(src) + Long_val(src_pos),
                                Bytes_val(ts) + Long_val(ts_pos), Long_val(n),
                                Bytes_val(cw) + Long_val(cw_pos), Long_val(cw_bits),
                                Bytes_val(dst), Bytes_val(t_out));
  return Val_unit;
}

value lw_aes_level_byte(value *argv, int argn)
{
  (void)argn;
  return lw_aes_level(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
                      argv[8], argv[9], argv[10], argv[11]);
}

value lw_aes_leaves(value build, value rk, value src, value src_pos, value ts, value ts_pos,
                    value n, value cw, value from, value count, value dst, value dst_pos)
{
  builds[Long_val(build)].leaves(Bytes_val(rk), Bytes_val(src) + Long_val(src_pos),
                                 Bytes_val(ts) + Long_val(ts_pos), Long_val(n),
                                 (const uint8_t *)String_val(cw), Long_val(from),
                                 Long_val(count), Bytes_val(dst) + Long_val(dst_pos));
  return Val_unit;
}

value lw_aes_leaves_byte(value *argv, int argn)
{
  (void)argn;
  return lw_aes_leaves(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
                       argv[8], argv[9], argv[10], argv[11]);
}

value lw_aes_gen(value build, value rk, value seeds, value alpha, value d, value levels,
                 value alpha_lo, value root0, value root1, value cw, value cw_bits, value leaf)
{
  builds[Long_val(build)].gen(Bytes_val(rk), Bytes_val(seeds), Long_val(alpha), Long_val(d),
                              Long_val(levels), Long_val(alpha_lo), Bytes_val(root0),
                              Bytes_val(root1), Bytes_val(cw), Bytes_val(cw_bits),
                              Bytes_val(leaf));
  return Val_unit;
}

value lw_aes_gen_byte(value *argv, int argn)
{
  (void)argn;
  return lw_aes_gen(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
                    argv[8], argv[9], argv[10], argv[11]);
}
