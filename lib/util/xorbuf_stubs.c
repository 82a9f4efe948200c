/* The PIR scan kernel: XOR a run of [count] [bucket]-byte records into
   each lane's accumulator, record [j] masked for lane [q] by bit
   [q & 7] of [bits[bits_pos + (q >> 3) * stride + j]], and read only up
   to its extent, capped at [bucket]. The caller promises every byte
   past an extent is zero, so skipping it changes no accumulator.

   The records live in blocks of [2^shift] records each, as a store's
   copy-on-write blocks do: record [j] of the run is record [first + j]
   of the blocks, at [src_pos + local * bucket] of block
   [(first + j) >> shift], [local] the low [shift] bits, and its extent
   is the 32-bit entry [local * step] of that block's extent table.
   [step] 0 gives every record of a block one shared extent (the whole
   record, when it is past [bucket]). A single buffer is the one block
   of a run that [shift] keeps inside it.

   One loop order for every geometry. Records go in tiles of the build's
   depth, and a tile may take rows from two blocks or more: consecutive
   records inside one block lie at a fixed stride from the tile's first,
   and any other row is addressed as its block plus its offset. Each
   64-byte column of a tile is loaded once into that many vectors, and
   every lane of a group of up to eight takes its masked XOR from those
   registers, with one accumulator read-modify-write per column. Wider
   batches take each tile once per group; leftover records go as tiles of
   one, and a bucket's bytes past its last whole vector one at a time.
   When every extent of the run is one value, the tiles are consecutive
   records and no extent is read per tile, and with whole records that is
   the walk of the kernel without extents. Otherwise the records are
   visited, a chunk of the run at a time, in a stable order by extent,
   longest first and without the empty ones, which is a function of the
   public extent map alone; each row of a tile is addressed by its own
   index, and its selection bits are gathered by that public index. A
   tile goes through the registers up to a bound no larger than any of
   its extents, and each row's columns past that bound, up to its own
   extent, then go one record at a time under the same masks. Sorted, the
   rows of a tile have near extents, so that remainder is small.

   [Xorbuf] checks the build index and every range before calling in, so
   nothing here is bounds-checked but the extents, which are capped at
   [bucket]. The selection bits are secret: they only ever become
   all-zero or all-one masks by arithmetic. The only control flow is
   [for] loops bounded by [count], [bucket], the block size, the lane
   count and the extents, and the only data-dependent addresses are the
   sort's, which index by extents and record indices: every byte up to a
   record's extent is read for each group of lanes and every accumulator
   word it reaches rewritten whatever the bits, so the memory trace and
   the instruction stream are functions of the geometry, the lane count
   and the extents alone. The scratch space is fixed-size, on the stack.
   The extents are public: they describe the database, which each
   server holds in the clear, never a query (see SECURITY.md).
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

#define GROUP 8   /* lanes per group: one selection plane */
#define CHUNK 512 /* records sorted at a time */
#define BINS 128  /* the sort's extent bins, at most; a key fits a byte */

/* A run's records: [blocks] and [exts] are OCaml arrays of byte
   buffers, each block's records and its extent table, [2^shift] records
   to a block ([mask] the low bits); record [j] of the run is record
   [first + j] of the blocks. */
struct run {
  value blocks, exts;
  intnat src_pos, step, shift, mask, first;
};

/* The address of record [j] of the run: its block's bytes plus its
   offset there. */
static inline __attribute__((always_inline)) uintptr_t
record(const struct run *u, intnat j, intnat bucket)
{
  intnat g = u->first + j;
  return (uintptr_t)Bytes_val(Field(u->blocks, g >> u->shift)) + u->src_pos
         + (g & u->mask) * bucket;
}

/* Record [j]'s entry in its block's extent table. */
static inline __attribute__((always_inline)) const unsigned char *
entry(const struct run *u, intnat j)
{
  intnat g = u->first + j;
  return Bytes_val(Field(u->exts, g >> u->shift)) + (g & u->mask) * u->step;
}

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

/* Bytes [lo, end) of [depth] rows into lanes [g, g + n) under masks
   [m], row [r] at address [s + r * step + off[r]]: whole columns from
   [lo] up to [vec_end], then the bytes up to [end] one at a time. [lo]
   is a multiple of the column width no greater than [vec_end]. The
   group's first lane goes last, so its masks can take the registers the
   others free. */
static inline __attribute__((always_inline)) void
xor_columns(uintptr_t s, intnat step, const uintptr_t *off, intnat depth, intnat lo,
            intnat vec_end, intnat end, uint64_t (*m)[GROUP], value dsts, intnat g, intnat n)
{
  for (intnat o = lo; o < vec_end; o += sizeof(vec)) {
    vec v[GROUP];
#pragma GCC unroll 8
    for (intnat r = 0; r < depth; r++)
      v[r] = AT((const unsigned char *)(s + r * step + off[r] + o));
    for (intnat q = 1; q < n; q++)
      xor_column(v, m[q], depth, Bytes_val(Field(dsts, g + q)) + o);
    xor_column(v, m[0], depth, Bytes_val(Field(dsts, g)) + o);
  }
  for (intnat o = vec_end; o < end; o++)
    for (intnat q = 0; q < n; q++) {
      uint64_t x = 0;
#pragma GCC unroll 8
      for (intnat r = 0; r < depth; r++)
        x ^= *(const unsigned char *)(s + r * step + off[r] + o) & m[q][r];
      Bytes_val(Field(dsts, g + q))[o] ^= (unsigned char)x;
    }
}

/* [x] capped at [bucket]. */
static inline __attribute__((always_inline)) intnat
cap(uint64_t x, intnat bucket)
{
  intnat e = (intnat)(x & 0xffffffff);
  return bucket + ((e - bucket) & -(intnat)(e < bucket));
}

/* Record [j]'s extent: the 32-bit entry [j * step] of [ext], capped at
   [bucket]. */
static inline __attribute__((always_inline)) intnat
extent(const unsigned char *ext, intnat step, intnat j, intnat bucket)
{
  uint32_t e;
  __builtin_memcpy(&e, ext + j * step, sizeof e);
  return cap(e, bucket);
}

/* The offsets of a stride walk's rows past its first, and the extents
   of a tile with no rows past its bound: none. */
static const intnat none[GROUP];
static const uintptr_t nowhere[GROUP];

/* A tile of [depth] rows into every lane, a group at a time: row [r] is
   record [j + r * k + at[r]] of the run, [k] 1 and [at] [none] for
   consecutive records, [k] 0 for any others, and its bytes are at
   [s + r * step + off[r]]: [s] the first row and [step] the bucket for
   consecutive records in one block, or [s] and [step] 0 and [off] each
   row's address, its block plus its offset, where the rows may come
   from different blocks. Bytes [0, lo) of every row go through the
   registers, whole columns then bytes, and then, for the first
   [ragged] rows, each one's bytes from [lo] up to its own extent
   [e[r]], one row at a time under the same masks. Where that extent is
   past [lo], [lo] is below the bucket and so a whole number of columns;
   elsewhere the row has nothing left. A group gathers its rows'
   selection bytes, by their public indices, into one word. A lone lane
   walks a copy of the tile's columns made for one lane, which spends no
   registers on a loop over the others. */
static inline __attribute__((always_inline)) void
xor_tile(const unsigned char *bits, intnat stride, intnat j, intnat k, const intnat *at,
         uintptr_t s, intnat step, const uintptr_t *off, intnat depth, intnat lo,
         const intnat *e, intnat ragged, value dsts, intnat lanes)
{
  const intnat big = __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__;
  const intnat column = sizeof(vec);
  intnat vec_lo = lo & -column;
  for (intnat g = 0; g < lanes; g += GROUP) {
    intnat n = lanes - g;
    n += (GROUP - n) & -(intnat)(n > GROUP);
    const unsigned char *plane = bits + (g >> 3) * stride + j;
    unsigned char b[GROUP];
#pragma GCC unroll 8
    for (intnat r = 0; r < depth; r++)
      b[r] = plane[r * k + at[r]];
    uint64_t w = 0, m[GROUP][GROUP];
    __builtin_memcpy(&w, b, depth);
    /* all ones where lane [g + q]'s bit for row [r] is set */
    for (intnat q = 0; q < n; q++)
#pragma GCC unroll 8
      for (intnat r = 0; r < depth; r++)
        m[q][r] = (uint64_t)0 - ((w >> (8 * (r ^ (7 * big)) + q)) & 1);
    intnat lone = -(intnat)(n == 1);
    xor_columns(s, step, off, depth, 0, vec_lo & ~lone, lo & ~lone, m, dsts, g, n);
    xor_columns(s, step, off, depth, 0, vec_lo & lone, lo & lone, m, dsts, g, 1);
    for (intnat r = 0; r < ragged; r++) {
      intnat past = -(intnat)(e[r] > lo);
      xor_columns(s + r * step, 0, off + r, 1, lo & past, e[r] & -column & past, e[r] & past,
                  (uint64_t(*)[GROUP]) & m[0][r], dsts, g, n);
    }
  }
}

/* The AND and the OR of [count] extents from [ext], in [x[0]] and
   [x[1]]: one entry when [step] is 0, whole vectors of entries and then
   the rest one at a time otherwise. */
static inline __attribute__((always_inline)) void
extents_and_or(const unsigned char *ext, intnat step, intnat count, uint32_t x[2])
{
  const intnat per = sizeof(vec) / sizeof(uint32_t);
  intnat entries = count + (((intnat)(count > 0) - count) & -(intnat)(step == 0));
  vec all = ~(vec){ 0 }, any = { 0 };
  intnat i = 0;
  for (; i + per <= entries; i += per) {
    vec v = AT(ext + i * sizeof(uint32_t));
    all &= v;
    any |= v;
  }
  uint64_t a = ~(uint64_t)0, o = 0;
#pragma GCC unroll 8
  for (intnat k = 0; k < (intnat)(sizeof(vec) / sizeof(uint64_t)); k++) {
    a &= all[k];
    o |= any[k];
  }
  uint32_t a32 = (uint32_t)(a & (a >> 32)), o32 = (uint32_t)(o | (o >> 32));
  for (; i < entries; i++) {
    uint32_t e;
    __builtin_memcpy(&e, ext + i * sizeof(uint32_t), sizeof e);
    a32 &= e;
    o32 |= e;
  }
  x[0] = a32;
  x[1] = o32;
}

/* The AND and the OR of the run's [count] extents: [extents_and_or] over
   the run's share of each block it spans. */
static inline __attribute__((always_inline)) void
run_and_or(const struct run *u, intnat count, uint32_t x[2])
{
  intnat n = 0;
  x[0] = ~(uint32_t)0;
  x[1] = 0;
  for (intnat j = 0; j < count; j += n) {
    intnat g = u->first + j, left = count - j;
    uint32_t y[2];
    n = (g | u->mask) + 1 - g;
    n += (left - n) & -(intnat)(left < n);
    extents_and_or(entry(u, j), u->step, n, y);
    x[0] &= y[0];
    x[1] |= y[1];
  }
}

/* The records of the chunk from record [c] of a run of [count]:
   [CHUNK], or the rest of the run. */
static inline __attribute__((always_inline)) intnat
chunk_records(intnat count, intnat c)
{
  intnat n = count - c;
  return n + ((CHUNK - n) & -(intnat)(n > CHUNK));
}

/* Extent [e]'s sort key: 0 for 0, else 1 more than its whole columns
   in bins of 2^[shift], and 1 more again at the bucket. */
static inline __attribute__((always_inline)) intnat
sort_key(intnat e, intnat bucket, intnat shift)
{
  return (((e / (intnat)sizeof(vec)) >> shift) + 1 + (e == bucket)) & -(intnat)(e > 0);
}

/* The visit order of [count] records (at most [CHUNK]), record [j]'s
   extent the 32-bit entry [j * step] of [ext], capped at [bucket]: a
   stable counting sort, longest first, of the records whose extent is
   not 0, into [order]; it returns how many there are. The key is an
   extent's whole 64-byte columns, and an extent at the bucket sorts
   above every other. Where a bucket's keys would not fit in [BINS],
   they count columns in bins of 2^s, the least [s] that fits: clearing
   and summing the bins is the sort's fixed cost per call, which a
   16 KiB bucket's 259 keys made the larger part of a short run. A zero
   extent takes key 0, which is placed last and not counted. Only the
   extents are read: the order is a function of the public extent map
   alone. One function, which every build and [lw_extent_order] call. */
static __attribute__((noinline, noclone)) intnat
extent_order(const unsigned char *ext, intnat step, intnat count, intnat bucket,
             uint16_t *order)
{
  intnat cols = bucket / (intnat)sizeof(vec), shift = 0;
  for (intnat c = cols; c + 3 > BINS; c >>= 1)
    shift++;
  intnat top = (cols >> shift) + 2;
  uint16_t at[BINS]; /* each key's count, then its next slot */
  for (intnat k = 0; k <= top; k++)
    at[k] = 0;
  unsigned char keys[CHUNK]; /* below [BINS] */
  intnat zeros = 0;
  for (intnat j = 0; j < count; j++) {
    intnat e = extent(ext, step, j, bucket);
    keys[j] = (unsigned char)sort_key(e, bucket, shift);
    at[keys[j]]++;
    zeros += e == 0;
  }
  intnat sum = 0;
  for (intnat k = top; k >= 0; k--) {
    intnat h = at[k];
    at[k] = (uint16_t)sum;
    sum += h;
  }
  for (intnat j = 0; j < count; j++)
    order[at[keys[j]]++] = (uint16_t)j;
  return count - zeros;
}

/* A build's signature: the kernel's arguments after [Xorbuf]'s checks. */
typedef void build_fn(const unsigned char *, intnat, intnat, const struct run *, intnat, value);

/* The sorted walk over [count] records whose extents differ, a chunk of
   at most [CHUNK] records of the run at a time: the chunk's extent
   entries gathered from their blocks, then its records with a non-zero
   extent in [extent_order], in tiles of [depth] and then the rows left
   over as tiles of one. A tile goes through the registers up to [lo],
   the least of its rows' extents (about its last row's, as the rows are
   sorted), rounded down to whole columns below the bucket, so no larger
   than any of them; each row's columns past [lo] then go one row at a
   time. */
static inline __attribute__((always_inline)) void
sorted_walk(const unsigned char *bits, intnat stride, intnat count, const struct run *u,
            intnat bucket, value dsts, intnat depth)
{
  const intnat column = sizeof(vec), step = sizeof(uint32_t);
  intnat lanes = Wosize_val(dsts);
  uint16_t order[CHUNK];
  uint32_t entries[CHUNK];
  const unsigned char *ext = (const unsigned char *)entries;
  for (intnat c = 0; c < count; c += CHUNK) {
    intnat records = chunk_records(count, c);
    for (intnat i = 0; i < records; i++)
      __builtin_memcpy(&entries[i], entry(u, c + i), step);
    intnat kept = extent_order(ext, step, records, bucket, order);
    intnat t = 0;
    for (; t + depth <= kept; t += depth) {
      intnat at[GROUP], e[GROUP], lo = bucket;
      uintptr_t off[GROUP];
#pragma GCC unroll 8
      for (intnat r = 0; r < depth; r++) {
        at[r] = c + order[t + r];
        off[r] = record(u, at[r], bucket);
        e[r] = extent(ext, step, order[t + r], bucket);
        lo += (e[r] - lo) & -(intnat)(e[r] < lo);
      }
      lo &= ~((column - 1) & -(intnat)(lo < bucket));
      xor_tile(bits, stride, 0, 0, at, 0, 0, off, depth, lo, e, depth, dsts, lanes);
    }
    for (; t < kept; t++) {
      intnat at = c + order[t];
      xor_tile(bits, stride, at, 0, none, record(u, at, bucket), 0, nowhere, 1,
               extent(ext, step, order[t], bucket), none, 0, dsts, lanes);
    }
  }
}

/* When the run's extents are all one value (a store of whole records,
   or one without extents at all), the stride walk, with no extent read
   again: a block's share of the run at a time, tiles of [depth]
   consecutive records through the registers up to that extent; where
   fewer than [depth] records are left in a block, one tile across its
   edge, each row at its own block and offset; and the records left at
   the end of the run as tiles of one. Otherwise the build's [sorted]
   walk. Each walk is a loop over a share of the records that the
   extents alone decide; the sorted walk is a function of its own,
   which keeps the stride walk's code as it was. */
static inline __attribute__((always_inline)) void
xor_lanes(const unsigned char *bits, intnat stride, intnat count, const struct run *u,
          intnat bucket, value dsts, intnat depth, build_fn *sorted)
{
  intnat lanes = Wosize_val(dsts);
  uint32_t run[2];
  run_and_or(u, count, run);
  intnat uniform = -(intnat)(run[0] == run[1]);
  intnat whole = cap(run[0], bucket);
  intnat strided = count & uniform, j = 0;
  for (; j + depth <= strided;) {
    /* [end]: the first record of the run past record [j]'s block */
    intnat g = u->first + j, left = strided - j, end = (g | u->mask) + 1 - g;
    end = j + end + ((left - end) & -(intnat)(left < end));
    for (; j + depth <= end; j += depth)
      xor_tile(bits, stride, j, 1, none, record(u, j, bucket), bucket, nowhere, depth, whole,
               none, 0, dsts, lanes);
    intnat across = (intnat)(j < end) & (intnat)(j + depth <= strided);
    for (intnat x = 0; x < across; x++, j += depth) {
      uintptr_t off[GROUP];
#pragma GCC unroll 8
      for (intnat r = 0; r < depth; r++)
        off[r] = record(u, j + r, bucket);
      xor_tile(bits, stride, j, 1, none, 0, 0, off, depth, whole, none, 0, dsts, lanes);
    }
  }
  for (; j < strided; j++)
    xor_tile(bits, stride, j, 1, none, record(u, j, bucket), 0, nowhere, 1, whole, none, 0,
             dsts, lanes);
  sorted(bits, stride, count & ~uniform, u, bucket, dsts);
}

/* A build: the body under a [target] attribute, at its tile depth, and
   its sorted walk beside it. Eight records' columns take 8 of AVX-512's
   32 registers; AVX2 holds four in 8 of its 16, leaving the rest to the
   lone lane's masks and accumulator. The baseline's 16 xmm registers
   hold two at most, and so shallow a tile pays an accumulator pass per
   two records, so it takes the depth that measured fastest and reads
   its tile back from the stack. */
#define BUILD(name, attr, depth)                                                            \
  attr static __attribute__((noinline, noclone)) void sorted_##name(                        \
      const unsigned char *bits, intnat stride, intnat count, const struct run *u,          \
      intnat bucket, value dsts)                                                            \
  {                                                                                         \
    sorted_walk(bits, stride, count, u, bucket, dsts, depth);                               \
  }                                                                                         \
  attr static void xor_lanes_##name(const unsigned char *bits, intnat stride, intnat count, \
                                    const struct run *u, intnat bucket, value dsts)         \
  {                                                                                         \
    xor_lanes(bits, stride, count, u, bucket, dsts, depth, sorted_##name);                  \
  }

#ifdef __x86_64__
BUILD(avx512, __attribute__((target("avx512f"))), 8)
BUILD(avx2, __attribute__((target("avx2"))), 4)
#endif
BUILD(baseline, , 8)

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

/* The one entry of every lane call: a run of [count] records from
   record [first] of [blocks], [2^shift] records to a block. */
value lw_xor_lanes(value build, value bits, value bits_pos, value stride, value count,
                   value blocks, value src_pos, value exts, value ext_step, value shift,
                   value first, value bucket, value dsts)
{
  struct run u = { blocks, exts, Long_val(src_pos), Long_val(ext_step), Long_val(shift),
                   ((intnat)1 << Long_val(shift)) - 1, Long_val(first) };
  builds[Long_val(build)](Bytes_val(bits) + Long_val(bits_pos), Long_val(stride),
                          Long_val(count), &u, Long_val(bucket), dsts);
  return Val_unit;
}

value lw_xor_lanes_byte(value *argv, int argn)
{
  (void)argn;
  return lw_xor_lanes(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
                      argv[8], argv[9], argv[10], argv[11], argv[12]);
}

/* The sorted walk's visit order over [count] records whose extents are
   the 32-bit entries from [ext_pos] of [ext]: [extent_order] on each
   chunk in turn, its record indices written from the run's start as
   32-bit entries of [out]. Returns how many. */
value lw_extent_order(value ext, value ext_pos, value count, value bucket, value out)
{
  const unsigned char *e = Bytes_val(ext) + Long_val(ext_pos);
  intnat n = Long_val(count), kept = 0;
  uint16_t order[CHUNK];
  for (intnat c = 0; c < n; c += CHUNK) {
    intnat k = extent_order(e + c * sizeof(uint32_t), sizeof(uint32_t), chunk_records(n, c),
                            Long_val(bucket), order);
    for (intnat i = 0; i < k; i++) {
      uint32_t x = (uint32_t)(c + order[i]);
      __builtin_memcpy(Bytes_val(out) + (kept + i) * sizeof x, &x, sizeof x);
    }
    kept += k;
  }
  return Val_long(kept);
}
