//! Packed signature planes: branch-free `*`-aware distance kernels.
//!
//! A face signature is ternary (Definition 6), so a set of `F` signatures
//! over `P` pairs packs into two bit-planes of `⌈P/64⌉` words per face:
//! bit `i` of `plus` is set where component `i` is `+1`, bit `i` of
//! `minus` where it is `−1`, and both clear where it is `0`. A basic
//! sampling vector (Definition 4 with the `*` of eq. 6) packs the same
//! way plus a `present` mask that clears `*` pairs.
//!
//! With that layout the `*`-aware squared distance of Definitions 8/9
//! reduces to a handful of bitwise ops per 64 pairs. For a present pair
//! the component difference is one of three magnitudes:
//!
//! * opposite signs (`+1` vs `−1`) — contributes 4,
//! * exactly one of the two components nonzero — contributes 1,
//! * otherwise — contributes 0.
//!
//! so `d² = 4·popcount((vp & gm) | (vm & gp))
//!        + popcount(((vp | vm) ^ (gp | gm)) & present)`
//! summed over words. The result is an exact small integer, hence
//! bit-identical to the scalar [`difference_norm_squared`] sum (which
//! adds the same integers in f64, exactly).
//!
//! Extended vectors (Definition 10) carry arbitrary values in `[−1, 1]`
//! and take a decode kernel instead: the query precomputes, per pair, the
//! squared term the scalar reference would add for a face component of
//! `−1`, `0` and `+1`; each plane word is spread back to its 64 components
//! by table, eight at a time, and the picked terms are accumulated
//! strictly in pair order, so the result stays bit-identical to the
//! scalar reference.
//!
//! The planes are the only stored copy of a map's signatures: every
//! component-level view (a [`SignatureVector`], the codec's bytes, the
//! replay digest) is decoded from them on demand.
//!
//! [`difference_norm_squared`]: crate::vector::difference_norm_squared

use crate::vector::{hugepages, simd, SamplingVector, SignatureVector};

/// Bit-plane arena holding the signatures of every face of a map.
///
/// The arena is a sequence of *slots*, one per face: slot `s` stores its
/// planes at words `sW .. (s+1)W` of a plus and a minus array
/// (`W` = [`words_per_face`]). Until [`build_chunks`] runs, slot `s` holds
/// face `s`. Building the chunk index re-lays the slots out in chunk
/// order, so the indexed matcher's leaf scans and the exhaustive sweep
/// both stream the arena sequentially; face-id access
/// ([`plus`], [`minus`], [`distance_squared`]) then goes through a
/// face→slot table. The two planes stay in separate arrays: sparse
/// queries read a few words of each, and two strided streams scan
/// faster than one interleaved stream of twice the stride.
///
/// [`plus`]: SignaturePlanes::plus
/// [`minus`]: SignaturePlanes::minus
/// [`distance_squared`]: SignaturePlanes::distance_squared
/// [`words_per_face`]: SignaturePlanes::words_per_face
/// [`build_chunks`]: SignaturePlanes::build_chunks
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignaturePlanes {
    dim: usize,
    words: usize,
    faces: usize,
    plus: Vec<u64>,
    minus: Vec<u64>,
    chunks: PlaneChunks,
}

/// Coarse-to-fine chunk summaries over the face arena: the data behind
/// [`SignaturePlanes::chunk_lower_bound`] and
/// [`SignaturePlanes::super_lower_bound`].
///
/// A *chunk* is a caller-chosen group of faces and a *super-chunk* a
/// caller-chosen group of chunks (the face map groups by grid locality at
/// both granularities, so grouped faces have similar signatures). Each
/// node at either level stores five per-word envelopes over its faces'
/// planes (an [`EnvelopeArena`] block):
///
/// * `union_plus` / `union_minus` — OR of the faces' plus/minus planes
///   (bit set ⟺ *some* face has that component `+1`/`−1`),
/// * `inter_plus` / `inter_minus` — AND of the planes (bit set ⟺ *every*
///   face has it),
/// * `inter_known` — AND of `plus | minus` (bit set ⟺ *no* face has a
///   `0` there).
///
/// Together they bound each component's distance contribution from below
/// for every face of the node at once, which is what lets the indexed
/// matcher discard whole regions without scanning a single face: a cheap
/// sweep over the few super-chunk envelopes prunes most of the map, and
/// fine per-chunk bounds are only ever computed inside the survivors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PlaneChunks {
    /// Face id per arena slot: chunk `c` owns slots
    /// `starts[c] .. starts[c+1]`, ascending face ids within a chunk.
    face_order: Vec<u32>,
    /// Arena slot per face id — the inverse of `face_order`.
    slot_of: Vec<u32>,
    /// Chunk boundaries into `face_order`; `len = chunk_count + 1`, empty
    /// when no chunks are built.
    starts: Vec<u32>,
    /// Super-chunk boundaries into the *chunk* sequence: super `s` owns
    /// chunks `super_starts[s] .. super_starts[s+1]`.
    super_starts: Vec<u32>,
    /// Per-chunk envelopes, block `c` of the arena.
    env: EnvelopeArena,
    /// Per-super-chunk envelopes, block `s` of the arena.
    super_env: EnvelopeArena,
}

impl PlaneChunks {
    fn count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    fn super_count(&self) -> usize {
        self.super_starts.len().saturating_sub(1)
    }

    fn memory_bytes(&self) -> usize {
        (self.face_order.capacity()
            + self.slot_of.capacity()
            + self.starts.capacity()
            + self.super_starts.capacity())
            * std::mem::size_of::<u32>()
            + self.env.memory_bytes()
            + self.super_env.memory_bytes()
    }

    fn shrink_to_fit(&mut self) {
        self.face_order.shrink_to_fit();
        self.slot_of.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.super_starts.shrink_to_fit();
        self.env.shrink_to_fit();
        self.super_env.shrink_to_fit();
    }
}

/// Flat storage for fixed-width envelope blocks (one block per chunk or
/// super-chunk), kept as five parallel word arrays so the bound kernels
/// stream them directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct EnvelopeArena {
    union_plus: Vec<u64>,
    inter_plus: Vec<u64>,
    union_minus: Vec<u64>,
    inter_minus: Vec<u64>,
    inter_known: Vec<u64>,
}

impl EnvelopeArena {
    /// Appends an identity envelope block of `w` words (unions empty,
    /// intersections full), returning its word base.
    fn push_block(&mut self, w: usize) -> usize {
        let base = self.union_plus.len();
        self.union_plus.resize(base + w, 0);
        self.union_minus.resize(base + w, 0);
        self.inter_plus.resize(base + w, !0);
        self.inter_minus.resize(base + w, !0);
        self.inter_known.resize(base + w, !0);
        base
    }

    /// Folds one face's planes into the block at word `base`.
    ///
    /// The envelopes are re-sliced to the face's word count up front so
    /// the fold loop carries no per-word bounds checks — this runs once
    /// per face per index level on every build *and* every churn repair.
    fn absorb(&mut self, base: usize, fp: &[u64], fm: &[u64]) {
        let w = fp.len();
        let up = &mut self.union_plus[base..base + w];
        let um = &mut self.union_minus[base..base + w];
        let ip = &mut self.inter_plus[base..base + w];
        let im = &mut self.inter_minus[base..base + w];
        let ik = &mut self.inter_known[base..base + w];
        for k in 0..w {
            up[k] |= fp[k];
            um[k] |= fm[k];
            ip[k] &= fp[k];
            im[k] &= fm[k];
            ik[k] &= fp[k] | fm[k];
        }
    }

    /// Borrows block `idx` (blocks are `words`-sized) for the kernels.
    fn block(&self, idx: usize, words: usize) -> simd::ChunkEnvelope<'_> {
        let (a, b) = (idx * words, (idx + 1) * words);
        simd::ChunkEnvelope {
            union_plus: &self.union_plus[a..b],
            inter_plus: &self.inter_plus[a..b],
            union_minus: &self.union_minus[a..b],
            inter_minus: &self.inter_minus[a..b],
            inter_known: &self.inter_known[a..b],
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.union_plus.capacity()
            + self.inter_plus.capacity()
            + self.union_minus.capacity()
            + self.inter_minus.capacity()
            + self.inter_known.capacity())
            * std::mem::size_of::<u64>()
    }

    fn shrink_to_fit(&mut self) {
        self.union_plus.shrink_to_fit();
        self.inter_plus.shrink_to_fit();
        self.union_minus.shrink_to_fit();
        self.inter_minus.shrink_to_fit();
        self.inter_known.shrink_to_fit();
    }

    fn advise_hugepages(&self) {
        hugepages::advise(&self.union_plus);
        hugepages::advise(&self.inter_plus);
        hugepages::advise(&self.union_minus);
        hugepages::advise(&self.inter_minus);
        hugepages::advise(&self.inter_known);
    }
}

/// Number of 64-bit words needed for `dim` pair components.
#[inline]
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(64)
}

/// Byte-spread tables for the packed→component decode: entry `b` carries
/// `lane` in byte `j` exactly where bit `j` of `b` is set (`0x01` for the
/// plus plane, `0xFF` — `−1` as `i8` — for the minus plane).
const SPREAD_PLUS: [u64; 256] = spread_table(0x01);
const SPREAD_MINUS: [u64; 256] = spread_table(0xFF);

const fn spread_table(lane: u8) -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut w = 0u64;
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                w |= (lane as u64) << (8 * j);
            }
            j += 1;
        }
        t[b] = w;
        b += 1;
    }
    t
}

/// The 64 components of the plane word pair `(p, m)` as two's-complement
/// bytes: each plane byte spreads to eight `+1` / `−1` bytes by table, then
/// the two spreads OR together (the planes are disjoint, so they never
/// collide). Bytes past `dim` in a last word decode as `0`.
#[inline]
fn decode_word(p: u64, m: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (g, group) in out.chunks_exact_mut(8).enumerate() {
        let spread = SPREAD_PLUS[(p >> (8 * g)) as u8 as usize]
            | SPREAD_MINUS[(m >> (8 * g)) as u8 as usize];
        group.copy_from_slice(&spread.to_le_bytes());
    }
    out
}

impl SignaturePlanes {
    /// Creates an empty arena for signatures of `dim` pair components.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "signature planes need at least one pair component");
        Self {
            dim,
            words: words_for(dim),
            faces: 0,
            plus: Vec::new(),
            minus: Vec::new(),
            chunks: PlaneChunks::default(),
        }
    }

    /// Reserves storage for `additional` more faces, so a build loop with
    /// a known face-count bound pays no growth reallocations.
    pub fn reserve(&mut self, additional: usize) {
        self.plus.reserve(additional * self.words);
        self.minus.reserve(additional * self.words);
    }

    /// Drops excess arena capacity (the counterpart of [`reserve`] once
    /// the final face count is known).
    ///
    /// [`reserve`]: SignaturePlanes::reserve
    pub fn shrink_to_fit(&mut self) {
        self.plus.shrink_to_fit();
        self.minus.shrink_to_fit();
        self.chunks.shrink_to_fit();
    }

    /// Packs an iterator of signatures (all of dimension `dim`).
    pub fn from_signatures<'a, I>(dim: usize, signatures: I) -> Self
    where
        I: IntoIterator<Item = &'a SignatureVector>,
    {
        let mut planes = Self::new(dim);
        for sig in signatures {
            planes.push_signature(sig);
        }
        planes
    }

    /// Appends one face's signature, returning its face index.
    ///
    /// # Panics
    ///
    /// Panics if `sig.len() != self.dim()`.
    pub fn push_signature(&mut self, sig: &SignatureVector) -> usize {
        assert_eq!(sig.len(), self.dim, "signature/plane dimension mismatch");
        self.push_components(sig.components())
    }

    /// Appends one face from raw components, which the caller has already
    /// checked lie in `{−1, 0, 1}` (a [`SignatureVector`], or a validated
    /// codec row). Returns the face index.
    pub(crate) fn push_components(&mut self, comps: &[i8]) -> usize {
        assert_eq!(comps.len(), self.dim, "component row has wrong length");
        self.assert_open();
        let w = self.words;
        let base = self.plus.len();
        self.plus.resize(base + w, 0);
        self.minus.resize(base + w, 0);
        let (plus, minus) = (&mut self.plus[base..], &mut self.minus[base..]);
        for (i, &c) in comps.iter().enumerate() {
            let (k, b) = (i / 64, i % 64);
            plus[k] |= u64::from(c == 1) << b;
            minus[k] |= u64::from(c == -1) << b;
        }
        self.faces += 1;
        self.faces - 1
    }

    /// Appends one face directly from packed words (the rasterizer path;
    /// avoids materializing a `SignatureVector`). Returns the face index.
    ///
    /// # Panics
    ///
    /// Panics if the word slices are not [`words_per_face`] long, if the
    /// two planes overlap (a component cannot be both `+1` and `−1`), or
    /// if padding bits past `dim` are set.
    ///
    /// [`words_per_face`]: SignaturePlanes::words_per_face
    pub fn push_packed(&mut self, plus: &[u64], minus: &[u64]) -> usize {
        assert_eq!(plus.len(), self.words, "plus plane has wrong word count");
        assert_eq!(minus.len(), self.words, "minus plane has wrong word count");
        self.assert_open();
        let pad = self.padding_mask();
        for w in 0..self.words {
            assert_eq!(plus[w] & minus[w], 0, "overlapping signature planes");
            if w == self.words - 1 {
                assert_eq!((plus[w] | minus[w]) & pad, 0, "padding bits set");
            }
        }
        self.push_raw(plus, minus)
    }

    /// [`SignaturePlanes::push_packed`] without the plane-shape checks —
    /// the churn-repair path, where the planes are masked bit-moves out of
    /// an already-validated arena. Disjoint planes and clear padding hold
    /// *by construction* there, so they are debug assertions: the
    /// churn-repair differential tests exercise them, and release repairs
    /// do not pay a validation sweep per surviving face. Returns the face
    /// index.
    ///
    /// # Panics
    ///
    /// Panics on word-count mismatches or after chunks are built.
    pub(crate) fn push_raw(&mut self, plus: &[u64], minus: &[u64]) -> usize {
        assert_eq!(plus.len(), self.words, "plus plane has wrong word count");
        assert_eq!(minus.len(), self.words, "minus plane has wrong word count");
        self.assert_open();
        let pad = self.padding_mask();
        debug_assert!(
            (0..self.words).all(|w| {
                plus[w] & minus[w] == 0 && (w + 1 < self.words || (plus[w] | minus[w]) & pad == 0)
            }),
            "overlapping signature planes or padding bits set"
        );
        self.plus.extend_from_slice(plus);
        self.minus.extend_from_slice(minus);
        self.faces += 1;
        self.faces - 1
    }

    fn assert_open(&self) {
        assert!(
            !self.has_chunks(),
            "cannot append faces after chunk summaries are built"
        );
    }

    /// Mask of the unused high bits of the last word per face (zero when
    /// `dim` is a multiple of 64).
    #[inline]
    fn padding_mask(&self) -> u64 {
        match self.dim % 64 {
            0 => 0,
            r => !0u64 << r,
        }
    }

    /// Number of packed faces.
    #[inline]
    pub fn face_count(&self) -> usize {
        self.faces
    }

    /// Pair-component dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per face in each bit-plane (`⌈dim/64⌉`).
    #[inline]
    pub fn words_per_face(&self) -> usize {
        self.words
    }

    /// Arena slot of face `f`.
    #[inline]
    fn slot(&self, f: usize) -> usize {
        if self.chunks.slot_of.is_empty() {
            f
        } else {
            self.chunks.slot_of[f] as usize
        }
    }

    /// The `(plus, minus)` planes stored in arena slot `s`.
    #[inline]
    fn slot_planes(&self, s: usize) -> (&[u64], &[u64]) {
        let w = self.words;
        (
            &self.plus[s * w..(s + 1) * w],
            &self.minus[s * w..(s + 1) * w],
        )
    }

    /// `+1` bit-plane of face `f`.
    #[inline]
    pub fn plus(&self, f: usize) -> &[u64] {
        self.slot_planes(self.slot(f)).0
    }

    /// `−1` bit-plane of face `f`.
    #[inline]
    pub fn minus(&self, f: usize) -> &[u64] {
        self.slot_planes(self.slot(f)).1
    }

    /// `true` if no component of face `f` is `0` (`plus | minus` covers
    /// all `dim` bits): a "certain" face in the sense of the
    /// sequence-based baselines.
    pub fn is_certain(&self, f: usize) -> bool {
        let (p, m) = self.slot_planes(self.slot(f));
        let pad = self.padding_mask();
        (0..self.words).all(|w| {
            let unused = if w + 1 == self.words { pad } else { 0 };
            (p[w] | m[w] | unused) == !0
        })
    }

    /// Decodes face `f`'s components into `out` as two's-complement bytes
    /// (`1`, `0`, `0xFF`) — the byte form the codec writes and the replay
    /// digest folds.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn component_bytes(&self, f: usize, out: &mut [u8]) {
        assert_eq!(out.len(), self.dim, "component buffer has wrong length");
        let (gp, gm) = self.slot_planes(self.slot(f));
        for (w, word) in out.chunks_mut(64).enumerate() {
            // The last word may hold fewer than 64 components.
            word.copy_from_slice(&decode_word(gp[w], gm[w])[..word.len()]);
        }
    }

    /// Decodes the signature of face `f` as an owned vector.
    pub fn signature(&self, f: usize) -> SignatureVector {
        let mut bytes = vec![0u8; self.dim];
        self.component_bytes(f, &mut bytes);
        // Arena planes are validated on entry (`push_packed` assertions,
        // in-range `push_components` rows), so skip re-validation.
        SignatureVector::from_trusted(bytes.into_iter().map(|b| b as i8).collect())
    }

    /// Heap bytes held by the arena, chunk summaries included.
    pub fn memory_bytes(&self) -> usize {
        (self.plus.capacity() + self.minus.capacity()) * std::mem::size_of::<u64>()
            + self.chunks.memory_bytes()
    }

    /// `*`-aware squared distance `‖V_d − V_s(f)‖²` between a packed
    /// sampling vector and face `f` (Definitions 8/9).
    ///
    /// Bit-identical to
    /// [`difference_norm_squared`](crate::vector::difference_norm_squared)
    /// on the unpacked vectors, for both ternary and extended queries.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range or the query dimension differs.
    #[inline]
    pub fn distance_squared(&self, f: usize, query: &PackedQuery) -> f64 {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            f < self.faces,
            "face index {f} out of range ({} faces)",
            self.faces
        );
        self.slot_distance(self.slot(f), query)
    }

    /// `(face, d²)` for every face, in arena order — the sequential sweep
    /// of the exhaustive matcher. Once chunks are built the face ids come
    /// out in chunk order, not ascending.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs.
    pub fn scan<'a>(&'a self, query: &'a PackedQuery) -> impl Iterator<Item = (u32, f64)> + 'a {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        (0..self.faces).map(move |s| {
            let f = if self.chunks.face_order.is_empty() {
                s as u32
            } else {
                self.chunks.face_order[s]
            };
            (f, self.slot_distance(s, query))
        })
    }

    /// The distance kernel on arena slot `s`.
    #[inline]
    fn slot_distance(&self, s: usize, query: &PackedQuery) -> f64 {
        let (gp, gm) = self.slot_planes(s);
        match query.kind() {
            QueryKind::Ternary {
                plus,
                minus,
                present,
                active,
            } => {
                // Exact integer counts, so the SIMD-dispatched kernel is
                // bit-identical to the scalar word loop regardless of how
                // lanes group the words — and the sparse gather, which
                // only skips provably-zero words, is bit-identical to
                // both.
                let d2 = match active {
                    Some(active) => simd::d2_ternary_sparse(gp, gm, plus, minus, present, active),
                    None => simd::d2_ternary(gp, gm, plus, minus, present),
                };
                d2 as f64
            }
            QueryKind::Extended { terms, .. } => {
                let mut acc = 0.0f64;
                // Decoded a word (64 components) at a time, each picking its
                // precomputed term, and accumulated strictly in pair order,
                // so the partial sums match the scalar reference
                // bit-for-bit.
                for (w, terms) in terms.chunks(64).enumerate() {
                    let comps = decode_word(gp[w], gm[w]);
                    for (t, &c) in terms.iter().zip(&comps) {
                        // Component −1, 0, +1 (bytes 0xFF, 0, 1) → 0, 1, 2.
                        acc += t[usize::from(c.wrapping_add(1)).min(2)];
                    }
                }
                acc
            }
        }
    }

    /// Builds the two-level chunk summaries from per-face keys: face `f`
    /// belongs to chunk `(super_of[f], chunk_of[f])` and that chunk to
    /// super-chunk `super_of[f]`. Keys need not be dense — chunks are
    /// compacted in ascending `(super, chunk)` key order (so a super's
    /// chunks are contiguous), faces ascending within a chunk. The arena
    /// is re-laid out in that order, and frozen: no more faces can be
    /// appended afterwards.
    ///
    /// Deterministic: the same faces and assignments always produce the
    /// same layout and summaries, so structures rebuilt from a codec
    /// round-trip compare equal.
    ///
    /// # Panics
    ///
    /// Panics if either assignment's length differs from `face_count()`
    /// or if chunks were already built.
    pub fn build_chunks(&mut self, chunk_of: &[u32], super_of: &[u32]) {
        assert_eq!(
            chunk_of.len(),
            self.faces,
            "chunk assignment must cover every face"
        );
        assert_eq!(
            super_of.len(),
            self.faces,
            "super-chunk assignment must cover every face"
        );
        assert!(!self.has_chunks(), "chunk summaries already built");
        if self.faces == 0 {
            return;
        }
        let mut order: Vec<u32> = (0..self.faces as u32).collect();
        order.sort_unstable_by_key(|&f| (super_of[f as usize], chunk_of[f as usize], f));

        let mut ch = PlaneChunks {
            face_order: order,
            slot_of: vec![0; self.faces],
            ..PlaneChunks::default()
        };
        ch.starts.push(0);
        ch.super_starts.push(0);
        let w = self.words;
        let mut plus = Vec::with_capacity(self.faces * w);
        let mut minus = Vec::with_capacity(self.faces * w);
        let n = ch.face_order.len();
        let mut i = 0usize;
        while i < n {
            let skey = super_of[ch.face_order[i] as usize];
            let sbase = ch.super_env.push_block(w);
            while i < n && super_of[ch.face_order[i] as usize] == skey {
                let ckey = chunk_of[ch.face_order[i] as usize];
                let cbase = ch.env.push_block(w);
                while i < n
                    && super_of[ch.face_order[i] as usize] == skey
                    && chunk_of[ch.face_order[i] as usize] == ckey
                {
                    // Slots are still face ids until the new arena lands.
                    let f = ch.face_order[i] as usize;
                    let (fp, fm) = self.slot_planes(f);
                    ch.env.absorb(cbase, fp, fm);
                    ch.super_env.absorb(sbase, fp, fm);
                    plus.extend_from_slice(fp);
                    minus.extend_from_slice(fm);
                    ch.slot_of[f] = i as u32;
                    i += 1;
                }
                ch.starts.push(i as u32);
            }
            ch.super_starts.push((ch.starts.len() - 1) as u32);
        }
        ch.shrink_to_fit();
        // Addresses are final after the shrink; ask for huge-page backing
        // of everything the matcher streams per query. At scale the arena
        // spans hundreds of megabytes, and candidate sweeps are dTLB-bound
        // on 4 KiB pages.
        ch.env.advise_hugepages();
        ch.super_env.advise_hugepages();
        hugepages::advise(&plus);
        hugepages::advise(&minus);
        self.plus = plus;
        self.minus = minus;
        self.chunks = ch;
    }

    /// `true` once [`build_chunks`](SignaturePlanes::build_chunks) ran
    /// (and the arena holds at least one face).
    #[inline]
    pub fn has_chunks(&self) -> bool {
        !self.chunks.starts.is_empty()
    }

    /// Number of chunks (0 before
    /// [`build_chunks`](SignaturePlanes::build_chunks)).
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.count()
    }

    /// Face indices of chunk `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn chunk_faces(&self, c: usize) -> &[u32] {
        let (a, b) = (self.chunks.starts[c], self.chunks.starts[c + 1]);
        &self.chunks.face_order[a as usize..b as usize]
    }

    /// Provable lower bound on [`distance_squared`] over **every** face of
    /// chunk `c`: `chunk_lower_bound(c, q) ≤ d²(f, q)` for all `f` in the
    /// chunk. Exact (equal to the distance) when the chunk holds one face.
    ///
    /// Per component the bound takes the minimum possible contribution
    /// across the chunk, certified by the envelopes:
    ///
    /// * query `+1` — contributes ≥ 4 when every face is `−1` there
    ///   (`inter_minus`), else ≥ 1 when *no* face is `+1` (`¬union_plus`),
    ///   else 0 (symmetrically for query `−1`);
    /// * query `0` (present) — contributes ≥ 1 when no face has a `0`
    ///   there (`inter_known`);
    /// * query `*` — contributes 0.
    ///
    /// Summing per-component minima can only undercount any single face's
    /// distance, hence the bound. Extended queries have no envelope
    /// structure and get the trivial bound `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or the query dimension differs.
    ///
    /// [`distance_squared`]: SignaturePlanes::distance_squared
    pub fn chunk_lower_bound(&self, c: usize, query: &PackedQuery) -> f64 {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            c < self.chunk_count(),
            "chunk index {c} out of range ({} chunks)",
            self.chunk_count()
        );
        Self::envelope_bound(self.chunks.env.block(c, self.words), query)
    }

    /// Number of super-chunks (0 before
    /// [`build_chunks`](SignaturePlanes::build_chunks)).
    #[inline]
    pub fn super_count(&self) -> usize {
        self.chunks.super_count()
    }

    /// Chunk indices owned by super-chunk `s` (always contiguous — chunks
    /// are laid out grouped by super).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    pub fn super_chunks(&self, s: usize) -> std::ops::Range<usize> {
        self.chunks.super_starts[s] as usize..self.chunks.super_starts[s + 1] as usize
    }

    /// [`chunk_lower_bound`](SignaturePlanes::chunk_lower_bound) one level
    /// up: a provable lower bound on [`distance_squared`] over every face
    /// of every chunk of super-chunk `s`. The super envelope folds the
    /// same faces, so `super_lower_bound(s, q) ≤ chunk_lower_bound(c, q)`
    /// for each chunk `c` of `s` — pruning a super-chunk is exactly as
    /// sound as pruning each of its chunks, at a fraction of the sweep
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the query dimension differs.
    ///
    /// [`distance_squared`]: SignaturePlanes::distance_squared
    pub fn super_lower_bound(&self, s: usize, query: &PackedQuery) -> f64 {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            s < self.super_count(),
            "super-chunk index {s} out of range ({} super-chunks)",
            self.super_count()
        );
        Self::envelope_bound(self.chunks.super_env.block(s, self.words), query)
    }

    /// The envelope bound kernel shared by both index levels.
    fn envelope_bound(env: simd::ChunkEnvelope<'_>, query: &PackedQuery) -> f64 {
        match query.kind() {
            QueryKind::Ternary {
                plus,
                minus,
                present,
                active,
            } => {
                // Exact integer counts again, so the SIMD-dispatched bound
                // kernel and the sparse gather are bit-identical to the
                // scalar word loop.
                let lb = match active {
                    Some(active) => simd::chunk_bound_sparse(&env, plus, minus, present, active),
                    None => simd::chunk_bound(&env, plus, minus, present),
                };
                lb as f64
            }
            QueryKind::Extended { .. } => 0.0,
        }
    }

    /// [`distance_squared`](SignaturePlanes::distance_squared) with an
    /// early exit: returns `Some(d²)` — the exact, bit-identical distance
    /// — when `d² ≤ cutoff`, and `None` as soon as a partial sum proves
    /// `d² > cutoff`.
    ///
    /// Sound because both accumulations are monotone in the prefix: the
    /// ternary sum is exact integer addition of nonnegative per-word
    /// counts, and the extended sum adds nonnegative `f64` terms (round
    /// to nearest of `a + b` with `b ≥ 0` never drops below `a`). A
    /// rejected face therefore truly has `d² > cutoff` — it can neither
    /// win nor tie a best-so-far of `cutoff` — while an accepted face
    /// reports the same bits the full evaluation would.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range or the query dimension differs.
    pub fn distance_squared_within(
        &self,
        f: usize,
        query: &PackedQuery,
        cutoff: f64,
    ) -> Option<f64> {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        assert!(
            f < self.faces,
            "face index {f} out of range ({} faces)",
            self.faces
        );
        self.slot_distance_within(self.slot(f), query, cutoff)
    }

    /// [`distance_squared_within`](SignaturePlanes::distance_squared_within)
    /// for the face in *slot* `slot` of chunk `c` (its id is
    /// `chunk_faces(c)[slot]`). A chunk's faces are consecutive in the
    /// arena, so a leaf scan streams sequentially instead of gathering
    /// faces by id. Bit-identical to calling `distance_squared_within` on
    /// the face id.
    ///
    /// # Panics
    ///
    /// Panics if `c`/`slot` is out of range or the query dimension
    /// differs.
    pub fn chunk_slot_distance_within(
        &self,
        c: usize,
        slot: usize,
        query: &PackedQuery,
        cutoff: f64,
    ) -> Option<f64> {
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        let faces = self.chunk_faces(c).len();
        assert!(
            slot < faces,
            "slot {slot} out of range ({faces} faces in chunk {c})"
        );
        self.slot_distance_within(self.chunks.starts[c] as usize + slot, query, cutoff)
    }

    /// The early-exit kernel on arena slot `s`.
    fn slot_distance_within(&self, s: usize, query: &PackedQuery, cutoff: f64) -> Option<f64> {
        let QueryKind::Ternary {
            plus,
            minus,
            present,
            active,
        } = query.kind()
        else {
            let d = self.slot_distance(s, query);
            return (d <= cutoff).then_some(d);
        };
        let (gp, gm) = self.slot_planes(s);
        // Sparse queries touch so few words that the gathered sum is
        // cheaper than any partial-sum bookkeeping.
        if let Some(active) = active {
            let d = simd::d2_ternary_sparse(gp, gm, plus, minus, present, active) as f64;
            return (d <= cutoff).then_some(d);
        }
        simd::d2_ternary_within(gp, gm, plus, minus, present, cutoff).map(|d| d as f64)
    }

    /// Orders face `f` against face `g` on an extended query without the
    /// full sum when a margin proves the order: `Some(Less)` when
    /// `d²(f) < d²(g)`, `Some(Greater)` when `d²(f) > d²(g)`,
    /// `Some(Equal)` when the two sums are the same bits, and `None` when
    /// only the exact sums can tell. `d²` is the exact kernel value
    /// ([`distance_squared`](SignaturePlanes::distance_squared)), so the
    /// verdict is the one comparing those two sums would give.
    ///
    /// **The screen.** Let `t̂ₚ[c]` be the query's term for pair `p` and
    /// face component `c`, `N` the pair count, `K` the known pairs (the
    /// `present` mask), `u = 2⁻⁵³` and `γₖ = k·u/(1 − k·u)`.
    ///
    /// * Every term is a nonnegative f64 of at most 4, since
    ///   `|v − g| ≤ 2` and rounding is monotone; a `*` pair's terms are
    ///   all `+0.0`. So a face's exact real sum `S` of its terms is at
    ///   most `4K`, and the kernel's pair-order float sum `F` satisfies
    ///   `|F − S| ≤ γ_N·S ≤ 4K·γ_N`.
    /// * Outside `D`, the known pairs where `f` and `g` differ, the two
    ///   faces pick the same term (or a `*` pair's `+0.0`), so
    ///   `S(f) − S(g) = Δ = Σ_{p∈D} (t̂ₚ[c_f] − t̂ₚ[c_g])`. If `D` is
    ///   empty, both kernels add the same terms in the same order: the
    ///   sums are the same bits.
    /// * The screen takes `Δ̂`, that sum in floats, in pair order (any
    ///   order would do), and `Â`, the float sum of
    ///   `t̂ₚ[c_f] + t̂ₚ[c_g]` over `D`. With `A` its exact value,
    ///   `|Δ̂ − Δ| ≤ γ_{|D|+1}·A`.
    /// * So `F(f) − F(g) ≥ Δ̂ − γ_{N+1}·(8K + A)`: if
    ///   `Δ̂ > γ_{N+1}·(8K + A)`, `f` is strictly farther and can neither
    ///   win nor tie `g`. Symmetrically, `Δ̂ < −γ_{N+1}·(8K + A)` makes
    ///   `f` strictly nearer.
    ///
    /// The margin taken is the more generous `4(N + 4)·u·(8K + 2Â)`:
    /// `2Â ≥ A` (Â is within a factor `1 ± γ_{|D|}` of `A`), and the five
    /// roundings of the margin's own evaluation lose less than the factor
    /// of two between `4(N + 4)·u` and `2(N + 1)·u ≥ γ_{N+1}`. A `Δ̂`
    /// inside the margin, a real near-tie, returns `None`.
    ///
    /// The work is `O(words + |D|)`: one XOR sweep over the two faces'
    /// planes, then one term pair per differing known pair — 60 of 4 950
    /// pairs on average between faces a climb compares at 100 nodes and
    /// 1 m cells. The exact sum itself stays strictly sequential in pair
    /// order, because that order is what makes it bit-identical to
    /// [`difference_norm_squared`](crate::vector::difference_norm_squared).
    ///
    /// # Panics
    ///
    /// Panics if the query is ternary, its dimension differs, or a face
    /// is out of range.
    pub(crate) fn screen_extended(
        &self,
        f: usize,
        g: usize,
        query: &PackedQuery,
    ) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        assert_eq!(query.dim, self.dim, "query/plane dimension mismatch");
        let QueryKind::Extended { terms, present } = query.kind() else {
            panic!("the screen is for extended queries");
        };
        let (fp, fm) = self.slot_planes(self.slot(f));
        let (gp, gm) = self.slot_planes(self.slot(g));
        // Component −1, 0, +1 → term index 0, 1, 2.
        let pick = |p: u64, m: u64, b: u32| (1 + (p >> b & 1) - (m >> b & 1)) as usize;
        let (mut delta, mut abs, mut differ) = (0.0f64, 0.0f64, false);
        for (w, &known) in present.iter().enumerate() {
            let mut d = ((fp[w] ^ gp[w]) | (fm[w] ^ gm[w])) & known;
            differ |= d != 0;
            while d != 0 {
                let b = d.trailing_zeros();
                d &= d - 1;
                let t = &terms[w * 64 + b as usize];
                let (tf, tg) = (t[pick(fp[w], fm[w], b)], t[pick(gp[w], gm[w], b)]);
                delta += tf - tg;
                abs += tf + tg;
            }
        }
        if !differ {
            return Some(Ordering::Equal);
        }
        let n = self.dim as f64;
        let k = (self.dim - query.unknown) as f64;
        let margin = 4.0 * (n + 4.0) * (f64::EPSILON / 2.0) * (8.0 * k + 2.0 * abs);
        if delta > margin {
            Some(Ordering::Greater)
        } else if delta < -margin {
            Some(Ordering::Less)
        } else {
            None
        }
    }
}

/// A round's sampling vector packed for the plane kernels.
///
/// Basic (ternary) queries are three bit-masks (`plus`/`minus`/
/// `present`); extended queries are a per-pair table of the three
/// squared terms a face component can select. Build once per
/// localization, reuse across every face.
///
/// Algorithm 1 writes a query directly ([`QueryBuilder`]), reusing its
/// buffers from round to round; [`PackedQuery::new`] packs an
/// already-built [`SamplingVector`] and is the reference the builder is
/// tested against. Both choose the same form: ternary exactly when every
/// known component is `−1`, `0` or `+1`.
///
/// [`QueryBuilder`]: crate::sampling::QueryBuilder
#[derive(Debug, Clone, Default)]
pub struct PackedQuery {
    dim: usize,
    extended: bool,
    /// Bit `i` set where component `i` is `+1` / `−1`. Only meaningful in
    /// the ternary form.
    plus: Vec<u64>,
    minus: Vec<u64>,
    /// Bit `i` set where component `i` is known (not `*`), in both forms.
    /// An extended query's climb screens faces by the known pairs where
    /// they differ; every pair outside the mask has the term row
    /// `[+0.0; 3]`.
    present: Vec<u64>,
    /// Indices of the words with any present pair, used only when the
    /// query is sparse enough (`sparse`: ≤ ¼ of the words nonzero) that
    /// gathered scalar loops beat the dense SIMD sweep. Since
    /// `plus`/`minus` ⊆ `present` and every distance/bound term is masked
    /// by a query plane, restricting any kernel to these words is exact.
    active: Vec<u32>,
    sparse: bool,
    /// Per pair, the squared term `((v − c)·k)²` for a face component
    /// `c = −1, 0, +1`, where `v` is the query value (0 for `*`) and `k`
    /// its `{0.0, 1.0}` presence: the exact f64 the scalar reference adds
    /// for that pair, so a face's distance is a sum of lookups. Only
    /// meaningful in the extended form.
    terms: Vec<[f64; 3]>,
    /// Components that are `*`.
    unknown: usize,
    /// Known components that are exactly `0`.
    zeros: usize,
}

/// A reset query's buffers, for a writer in another module: the three
/// planes (zeroed) and the extended terms (empty).
pub(crate) struct QueryParts<'a> {
    pub(crate) plus: &'a mut [u64],
    pub(crate) minus: &'a mut [u64],
    pub(crate) present: &'a mut [u64],
    pub(crate) terms: &'a mut Vec<[f64; 3]>,
}

/// The kernels' view of a query's form.
enum QueryKind<'a> {
    Ternary {
        plus: &'a [u64],
        minus: &'a [u64],
        present: &'a [u64],
        active: Option<&'a [u32]>,
    },
    Extended {
        terms: &'a [[f64; 3]],
        present: &'a [u64],
    },
}

/// The extended-form terms of one component: `((v − c)·k)²` for
/// `c = −1, 0, +1`, with `v = 0`, `k = 0` for `*`.
#[inline]
pub(crate) fn component_terms(c: Option<f64>) -> [f64; 3] {
    let (v, k) = (c.unwrap_or(0.0), if c.is_some() { 1.0 } else { 0.0 });
    [-1.0, 0.0, 1.0].map(|g: f64| {
        let d = (v - g) * k;
        d * d
    })
}

impl PackedQuery {
    /// Packs a sampling vector, choosing the ternary bit-mask form when
    /// every known component is in `{−1, 0, +1}` and the flat extended
    /// form otherwise.
    pub fn new(v: &SamplingVector) -> Self {
        let mut q = Self::default();
        let dim = v.len();
        if v.is_ternary() {
            let QueryParts {
                plus,
                minus,
                present,
                ..
            } = q.reset(dim);
            for (i, c) in v.components().iter().enumerate() {
                if let Some(c) = c {
                    let (w, b) = (i / 64, i % 64);
                    present[w] |= 1 << b;
                    plus[w] |= u64::from(*c == 1.0) << b;
                    minus[w] |= u64::from(*c == -1.0) << b;
                }
            }
            q.finish_ternary();
        } else {
            let QueryParts { present, terms, .. } = q.reset(dim);
            for (i, c) in v.components().iter().enumerate() {
                present[i / 64] |= u64::from(c.is_some()) << (i % 64);
            }
            terms.extend(v.components().iter().map(|&c| component_terms(c)));
            let zeros = v.components().iter().filter(|c| **c == Some(0.0)).count();
            q.finish_extended(v.unknown_count(), zeros);
        }
        q
    }

    /// Resets to a ternary query of `dim` pairs with every plane bit
    /// clear and no extended terms, reusing the buffers, and hands them
    /// out for writing.
    pub(crate) fn reset(&mut self, dim: usize) -> QueryParts<'_> {
        let words = words_for(dim);
        self.dim = dim;
        self.extended = false;
        for plane in [&mut self.plus, &mut self.minus, &mut self.present] {
            plane.clear();
            plane.resize(words, 0);
        }
        self.terms.clear();
        QueryParts {
            plus: &mut self.plus,
            minus: &mut self.minus,
            present: &mut self.present,
            terms: &mut self.terms,
        }
    }

    /// Completes a ternary query whose planes are written: the sparse
    /// word list and the `*` and zero counts.
    pub(crate) fn finish_ternary(&mut self) {
        // Real sampling vectors hear one small node group, so most words
        // carry no present pair at all; record the nonzero ones when they
        // are rare enough for gathers to win.
        self.active.clear();
        self.active.extend(
            self.present
                .iter()
                .enumerate()
                .filter(|(_, &w)| w != 0)
                .map(|(i, _)| i as u32),
        );
        self.sparse = self.active.len() * 4 <= self.present.len();
        let (mut known, mut zeros) = (0, 0);
        for ((p, m), q) in self.plus.iter().zip(&self.minus).zip(&self.present) {
            known += q.count_ones() as usize;
            zeros += (q & !p & !m).count_ones() as usize;
        }
        self.unknown = self.dim - known;
        self.zeros = zeros;
    }

    /// Completes an extended query whose `terms` and `present` mask the
    /// writer filled, one term row per pair, with its `*` and zero counts.
    pub(crate) fn finish_extended(&mut self, unknown: usize, zeros: usize) {
        debug_assert_eq!(self.terms.len(), self.dim, "one term row per pair");
        debug_assert!(
            self.terms.iter().enumerate().all(|(i, t)| {
                self.present[i / 64] >> (i % 64) & 1 == 1 || t.iter().all(|x| x.to_bits() == 0)
            }),
            "a `*` pair's terms are all +0.0"
        );
        debug_assert_eq!(
            self.present
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            self.dim - unknown,
            "the known-pair mask counts the known pairs"
        );
        self.extended = true;
        self.unknown = unknown;
        self.zeros = zeros;
    }

    /// The form the kernels dispatch on.
    #[inline]
    fn kind(&self) -> QueryKind<'_> {
        if self.extended {
            QueryKind::Extended {
                terms: &self.terms,
                present: &self.present,
            }
        } else {
            QueryKind::Ternary {
                plus: &self.plus,
                minus: &self.minus,
                present: &self.present,
                active: self.sparse.then_some(&self.active[..]),
            }
        }
    }

    /// Pair-component dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when the query took the ternary bit-mask fast path.
    pub fn is_packed_ternary(&self) -> bool {
        !self.extended
    }

    /// The `(plus, minus, present)` planes of a ternary query, `None` for
    /// an extended one.
    pub fn ternary_planes(&self) -> Option<(&[u64], &[u64], &[u64])> {
        (!self.extended).then_some((&self.plus[..], &self.minus[..], &self.present[..]))
    }

    /// The known-pair mask: bit `i` set where component `i` is not `*`,
    /// in both forms.
    pub fn known_mask(&self) -> &[u64] {
        &self.present
    }

    /// The per-pair `[c = −1, 0, +1]` terms of an extended query, `None`
    /// for a ternary one.
    pub fn extended_terms(&self) -> Option<&[[f64; 3]]> {
        self.extended.then_some(&self.terms[..])
    }

    /// Number of `*` components (pairs with no information at all).
    #[inline]
    pub fn unknown_count(&self) -> usize {
        self.unknown
    }

    /// Number of known components that are exactly `0`.
    #[inline]
    pub fn zero_count(&self) -> usize {
        self.zeros
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::difference_norm_squared;

    fn planes_of(sigs: &[SignatureVector]) -> SignaturePlanes {
        SignaturePlanes::from_signatures(sigs[0].len(), sigs.iter())
    }

    #[test]
    fn ternary_distance_matches_scalar() {
        let sigs = vec![
            SignatureVector::new(vec![1, -1, 0, 1]),
            SignatureVector::new(vec![0, 0, 1, -1]),
        ];
        let planes = planes_of(&sigs);
        let v = SamplingVector::from_ternary(vec![Some(1), None, Some(-1), Some(0)]);
        let q = PackedQuery::new(&v);
        assert!(q.is_packed_ternary());
        for (f, sig) in sigs.iter().enumerate() {
            assert_eq!(
                planes.distance_squared(f, &q),
                difference_norm_squared(&v, sig)
            );
        }
    }

    #[test]
    fn extended_distance_matches_scalar_bit_for_bit() {
        let sigs = vec![
            SignatureVector::new(vec![1, 0, -1]),
            SignatureVector::new(vec![0, 1, 1]),
        ];
        let planes = planes_of(&sigs);
        let v = SamplingVector::new(vec![Some(1.0 / 3.0), None, Some(-0.7)]);
        let q = PackedQuery::new(&v);
        assert!(!q.is_packed_ternary());
        for (f, sig) in sigs.iter().enumerate() {
            let got = planes.distance_squared(f, &q);
            let want = difference_norm_squared(&v, sig);
            assert_eq!(got.to_bits(), want.to_bits(), "face {f}");
        }
    }

    #[test]
    fn crosses_word_boundary() {
        // 130 components spans three words; exercise bits 63, 64, 128.
        let dim = 130;
        let mut comps = vec![0i8; dim];
        comps[63] = 1;
        comps[64] = -1;
        comps[128] = 1;
        let sigs = vec![SignatureVector::new(comps)];
        let planes = planes_of(&sigs);
        let mut sample: Vec<Option<i8>> = vec![Some(0); dim];
        sample[63] = Some(-1); // opposite: 4
        sample[64] = None; // star: 0
        sample[129] = Some(1); // one-sided: 1  (plus comps[128] one-sided: 1)
        let v = SamplingVector::from_ternary(sample);
        let q = PackedQuery::new(&v);
        assert_eq!(planes.distance_squared(0, &q), 6.0);
        assert_eq!(
            planes.distance_squared(0, &q),
            difference_norm_squared(&v, &sigs[0])
        );
    }

    #[test]
    fn push_packed_round_trips() {
        let sig = SignatureVector::new(vec![1, 0, -1, 1, -1]);
        let mut a = SignaturePlanes::new(5);
        a.push_signature(&sig);
        let mut b = SignaturePlanes::new(5);
        b.push_packed(a.plus(0), a.minus(0));
        assert_eq!(a, b);
        assert_eq!(b.signature(0), sig);
        let mut bytes = [0u8; 5];
        b.component_bytes(0, &mut bytes);
        assert_eq!(bytes, [1, 0, 0xFF, 1, 0xFF]);
    }

    #[test]
    fn certainty_is_a_plane_test() {
        // 70 components span two words, so the padding of the last word
        // must not count as a `0` component.
        let mut comps = vec![1i8; 70];
        comps[69] = -1;
        let certain = SignatureVector::new(comps.clone());
        comps[64] = 0;
        let uncertain = SignatureVector::new(comps);
        let planes = planes_of(&[certain, uncertain]);
        assert!(planes.is_certain(0));
        assert!(!planes.is_certain(1));
    }

    /// Chunking re-lays the arena out in chunk order; every face-id view —
    /// planes, decoded signatures, both distance kernels, the storage-order
    /// scan — must be unchanged by it.
    #[test]
    fn chunk_order_is_invisible_through_face_ids() {
        let dim = 70;
        let sigs: Vec<SignatureVector> = (0..7)
            .map(|s| SignatureVector::new((0..dim).map(|i| ((i * s + s) % 3) as i8 - 1).collect()))
            .collect();
        let flat = planes_of(&sigs);
        let mut chunked = flat.clone();
        chunked.build_chunks(&[3, 1, 3, 0, 1, 0, 2], &[1, 0, 1, 0, 0, 0, 1]);
        let ternary = SamplingVector::from_ternary(
            (0..dim)
                .map(|i| (i % 4 != 0).then_some((i % 3) as i8 - 1))
                .collect(),
        );
        let extended = SamplingVector::new(
            (0..dim)
                .map(|i| (i % 5 != 0).then_some(i as f64 / dim as f64 - 0.4))
                .collect(),
        );
        for (f, sig) in sigs.iter().enumerate() {
            assert_eq!(chunked.plus(f), flat.plus(f));
            assert_eq!(chunked.minus(f), flat.minus(f));
            assert_eq!(&chunked.signature(f), sig);
            for v in [&ternary, &extended] {
                let q = PackedQuery::new(v);
                let want = difference_norm_squared(v, sig).to_bits();
                assert_eq!(chunked.distance_squared(f, &q).to_bits(), want);
                assert_eq!(flat.distance_squared(f, &q).to_bits(), want);
            }
        }
        let ternary = PackedQuery::new(&ternary);
        let mut scanned: Vec<(u32, f64)> = chunked.scan(&ternary).collect();
        assert_ne!(
            scanned.iter().map(|&(f, _)| f).collect::<Vec<_>>(),
            (0..7).collect::<Vec<u32>>(),
            "the scan walks chunk order, not face order"
        );
        scanned.sort_by_key(|&(f, _)| f);
        assert_eq!(scanned, flat.scan(&ternary).collect::<Vec<_>>());
    }

    /// A chunked arena holds exactly one copy of each face's planes plus
    /// the index: the envelope blocks, the slot→face order and the
    /// face→slot table, and the chunk boundaries.
    #[test]
    fn chunked_memory_is_one_plane_copy_plus_the_index() {
        let dim = 130; // 3 words per plane
        let sigs: Vec<SignatureVector> = (0..10)
            .map(|s| SignatureVector::new((0..dim).map(|i| ((i + s) % 3) as i8 - 1).collect()))
            .collect();
        let mut planes = planes_of(&sigs);
        // 4 chunks under 2 super-chunks.
        planes.build_chunks(
            &[0, 0, 1, 1, 1, 2, 2, 3, 3, 3],
            &[0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
        );
        assert_eq!((planes.chunk_count(), planes.super_count()), (4, 2));
        let (faces, words, u64s, u32s) = (10, 3, 8, 4);
        let planes_bytes = faces * 2 * words * u64s;
        let envelopes = (4 + 2) * 5 * words * u64s;
        let order_and_slots = 2 * faces * u32s;
        let boundaries = (4 + 1 + 2 + 1) * u32s;
        assert_eq!(
            planes.memory_bytes(),
            planes_bytes + envelopes + order_and_slots + boundaries
        );
    }

    /// The screen decides a clear gap, calls faces that differ only in
    /// `*` pairs equal, and sends a `Δ̂ = 0` case — a query value of `0`
    /// where one face reads `+1` and the other `−1` — to the exact
    /// comparison: the margin is positive even when the differing terms
    /// cancel.
    #[test]
    fn screen_decides_gaps_and_defers_cancelling_pairs() {
        use std::cmp::Ordering;
        let sigs = vec![
            SignatureVector::new(vec![1, 0, -1, 1]),
            SignatureVector::new(vec![-1, 0, -1, 1]),
            SignatureVector::new(vec![-1, 0, -1, -1]),
            SignatureVector::new(vec![1, 0, -1, -1]),
        ];
        let planes = planes_of(&sigs);
        let q = PackedQuery::new(&SamplingVector::new(vec![
            Some(0.0),
            Some(0.25),
            Some(-0.5),
            None,
        ]));
        assert_eq!(q.known_mask(), &[0b0111]);
        let exact = |f: usize| planes.distance_squared(f, &q);
        // Faces 0 and 1 differ in pair 0 only, where the query's `0`
        // charges `+1` and `−1` alike: Δ̂ = 0, so only the sums can tell.
        assert_eq!(planes.screen_extended(0, 1, &q), None);
        assert_eq!(exact(0).to_bits(), exact(1).to_bits());
        // Faces 1 and 2 differ only in the `*` pair 3: the same bits.
        assert_eq!(planes.screen_extended(1, 2, &q), Some(Ordering::Equal));
        assert_eq!(exact(1).to_bits(), exact(2).to_bits());
        // Faces 2 and 3 differ in pair 0 (cancelling) and pair 3 (`*`).
        assert_eq!(planes.screen_extended(2, 3, &q), None);
        // A clear gap: pair 2 at −0.5 charges face 1's `+1` 2.25, face
        // 0's `−1` 0.25.
        let sigs = vec![
            SignatureVector::new(vec![1, 0, -1, 1]),
            SignatureVector::new(vec![1, 0, 1, 1]),
        ];
        let planes = planes_of(&sigs);
        assert_eq!(planes.screen_extended(0, 1, &q), Some(Ordering::Less));
        assert_eq!(planes.screen_extended(1, 0, &q), Some(Ordering::Greater));
        assert!(planes.distance_squared(0, &q) < planes.distance_squared(1, &q));
    }

    #[test]
    fn all_star_query_is_zero_distance_everywhere() {
        let sigs = vec![SignatureVector::new(vec![1, -1, 0])];
        let planes = planes_of(&sigs);
        let v = SamplingVector::from_ternary(vec![None, None, None]);
        let q = PackedQuery::new(&v);
        assert_eq!(planes.distance_squared(0, &q), 0.0);
    }

    #[test]
    fn chunk_lower_bound_never_exceeds_chunk_min_distance() {
        let dim = 9;
        let sigs: Vec<SignatureVector> = (0..6)
            .map(|s| SignatureVector::new((0..dim).map(|i| ((i + s) % 3) as i8 - 1).collect()))
            .collect();
        let mut planes = planes_of(&sigs);
        // Three chunks with sparse keys ({0,1} {2,3} {4,5}) under two
        // super-chunks ({0..4} and {4,5}).
        planes.build_chunks(&[7, 7, 2, 2, 40, 40], &[1, 1, 1, 1, 9, 9]);
        assert!(planes.has_chunks());
        assert_eq!(planes.chunk_count(), 3);
        // Keys compact in ascending (super, chunk) order: (1,2) first.
        assert_eq!(planes.chunk_faces(0), &[2, 3]);
        assert_eq!(planes.chunk_faces(1), &[0, 1]);
        assert_eq!(planes.chunk_faces(2), &[4, 5]);
        assert_eq!(planes.super_count(), 2);
        assert_eq!(planes.super_chunks(0), 0..2);
        assert_eq!(planes.super_chunks(1), 2..3);
        for pat in 0..64u32 {
            let v = SamplingVector::from_ternary(
                (0..dim)
                    .map(|i| match (pat >> (i % 6)) & 1 {
                        0 => Some(((i % 3) as i8) - 1),
                        _ => None,
                    })
                    .collect(),
            );
            let q = PackedQuery::new(&v);
            for c in 0..planes.chunk_count() {
                let lb = planes.chunk_lower_bound(c, &q);
                let min = planes
                    .chunk_faces(c)
                    .iter()
                    .map(|&f| planes.distance_squared(f as usize, &q))
                    .fold(f64::INFINITY, f64::min);
                assert!(lb <= min, "chunk {c}: lb {lb} > min d² {min}");
            }
            for s in 0..planes.super_count() {
                let sb = planes.super_lower_bound(s, &q);
                for c in planes.super_chunks(s) {
                    assert!(
                        sb <= planes.chunk_lower_bound(c, &q),
                        "super {s} bound exceeds chunk {c} bound"
                    );
                }
            }
        }
    }

    #[test]
    fn singleton_chunk_bound_is_exact() {
        let sigs = vec![
            SignatureVector::new(vec![1, -1, 0, 1, 0]),
            SignatureVector::new(vec![0, 1, -1, -1, 1]),
        ];
        let mut planes = planes_of(&sigs);
        planes.build_chunks(&[0, 1], &[0, 0]);
        let v = SamplingVector::from_ternary(vec![Some(-1), Some(1), Some(0), None, Some(0)]);
        let q = PackedQuery::new(&v);
        for c in 0..2 {
            let f = planes.chunk_faces(c)[0] as usize;
            assert_eq!(
                planes.chunk_lower_bound(c, &q),
                planes.distance_squared(f, &q)
            );
        }
    }

    #[test]
    fn extended_queries_get_the_trivial_bound() {
        let sigs = vec![SignatureVector::new(vec![1, -1, 0])];
        let mut planes = planes_of(&sigs);
        planes.build_chunks(&[0], &[0]);
        let q = PackedQuery::new(&SamplingVector::new(vec![Some(0.5), None, Some(-0.25)]));
        assert_eq!(planes.chunk_lower_bound(0, &q), 0.0);
    }

    #[test]
    fn chunk_storage_is_accounted_and_shrunk() {
        let sigs: Vec<SignatureVector> = (0..4)
            .map(|s| SignatureVector::new(vec![(s % 3) as i8 - 1; 70]))
            .collect();
        let mut planes = planes_of(&sigs);
        let before = planes.memory_bytes();
        planes.build_chunks(&[0, 0, 1, 1], &[0, 0, 0, 0]);
        let with_chunks = planes.memory_bytes();
        // 2 chunks × 2 words × 5 envelopes × 8 bytes, plus the face order
        // and boundary arrays.
        assert!(
            with_chunks >= before + 2 * 2 * 5 * 8,
            "chunk arrays unaccounted: {before} -> {with_chunks}"
        );
        planes.shrink_to_fit();
        assert!(planes.memory_bytes() <= with_chunks);
        assert!(planes.has_chunks(), "shrinking must not drop the chunks");
    }

    #[test]
    #[should_panic(expected = "cannot append faces")]
    fn pushing_after_chunks_built_is_rejected() {
        let sig = SignatureVector::new(vec![1, 0, -1]);
        let mut planes = planes_of(std::slice::from_ref(&sig));
        planes.build_chunks(&[0], &[0]);
        planes.push_signature(&sig);
    }

    #[test]
    #[should_panic(expected = "must cover every face")]
    fn wrong_assignment_length_rejected() {
        let mut planes = planes_of(&[SignatureVector::new(vec![1, 0, -1])]);
        planes.build_chunks(&[0, 1], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let planes = planes_of(&[SignatureVector::new(vec![1, 0])]);
        let q = PackedQuery::new(&SamplingVector::from_ternary(vec![Some(1)]));
        let _ = planes.distance_squared(0, &q);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_planes_rejected() {
        let mut planes = SignaturePlanes::new(3);
        planes.push_packed(&[0b011], &[0b001]);
    }

    #[test]
    #[should_panic(expected = "padding bits")]
    fn padding_bits_rejected() {
        let mut planes = SignaturePlanes::new(3);
        planes.push_packed(&[0b1000], &[0]);
    }
}
