//! Content-addressed solve-result cache with in-flight coalescing.
//!
//! Scientific workloads repeat: the same matrix and right-hand side
//! arrive from thousands of clients. The cache keys each request by a
//! 128-bit hash of its operands read *where they lie*, with no copy and
//! no re-encode: a self-delimiting stream of 64-bit words — the problem
//! mnemonic, the object count, each object's kind tag, dimensions and
//! payload, every variable-length run after its length — so two requests
//! share a key exactly when their canonical XDR encodings are equal, and
//! the key discriminates on solver and operand shape, never on payload
//! bytes alone. The stream runs through XXH3's long-input loop at memory
//! speed (see [`solve_key`]).
//!
//! The cache is the outer layer of `ServerCore`'s `solve` stage (cache →
//! admission gate → solver): it sees each request first, and a probe ends
//! in one of four outcomes:
//!
//! * **declined** — the problem is non-deterministic (`quad_mc`): the
//!   request solves uncached, and no identical request joins it.
//! * **hit** — a cached reply exists; its stored bytes are CRC-checked
//!   *at serve time* and decoded. A mismatch (memory corruption, bug)
//!   drops the entry and falls through to a miss: a corrupted reply can
//!   never leave the server.
//! * **leader** — no entry, no in-flight solve: the caller runs the
//!   solve (or is shed at the gate) and hands the outcome to its
//!   `LeaderToken`.
//! * **join** — an identical request is already solving: the caller
//!   blocks on the in-flight slot and shares the one reply (or its
//!   error) instead of queueing duplicate work.
//!
//! Entries store the XDR-encoded outputs plus a CRC-32 computed at
//! insert, and are evicted LRU under a byte budget. Errors are never
//! cached — a failed solve propagates to every joined waiter and the
//! next arrival re-runs the problem.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::rng::splitmix64;
use netsolve_obs::MetricsRegistry;
use netsolve_xdr::{crc32, from_bytes, to_bytes};
use parking_lot::Mutex;

use crate::core::Solved;
// The workspace's parking_lot shim exposes no Condvar, but its MutexGuard
// *is* `std::sync::MutexGuard`, so std's Condvar pairs with it directly.
use std::sync::Condvar;

/// Fixed bookkeeping cost charged per entry on top of its payload bytes
/// (key, CRC, sequence number, map/queue slots).
const ENTRY_OVERHEAD: usize = 64;

/// `N` words derived from `seed` with splitmix64.
const fn secret<const N: usize>(seed: u64) -> [u64; N] {
    let mut s = [0; N];
    let mut i = 0;
    while i < N {
        s[i] = splitmix64(seed ^ i as u64);
        i += 1;
    }
    s
}

/// Stripe `k` of a 16-stripe block keys its words with `STRIPE_SECRET[k..k + 8]`;
/// the block scramble uses the last eight (XXH3's 192-byte secret layout).
const STRIPE_SECRET: [u64; 24] = secret(0x1319_8a2e_0370_7344);
const MERGE_LO: [u64; 8] = secret(0xa409_3822_299f_31d0);
const MERGE_HI: [u64; 8] = secret(0x082e_fa98_ec4e_6c89);

/// XXH3's long-input loop over a stream of 64-bit words: eight
/// accumulators, each 64-byte stripe adding every word to its neighbour
/// lane and the 32×32-bit product of its keyed halves to its own (the
/// compiler turns the eight products into `pmuludq`s), a scramble every
/// 16 stripes, and two merges to the key's halves with the word count
/// folded in. Not collision-resistant against someone who knows the
/// constants — the cooperative deployment the paper assumes.
struct KeyHasher {
    acc: [u64; 8],
    pending: [u64; 8],
    fill: usize,
    stripes: u64,
}

impl KeyHasher {
    fn word(&mut self, w: u64) {
        self.pending[self.fill] = w;
        self.fill = (self.fill + 1) % 8;
        if self.fill == 0 {
            self.stripe(self.pending);
        }
    }

    /// `xs` as words, read in place: whole stripes skip `pending`.
    fn words<T: Copy>(&mut self, xs: &[T], word: impl Fn(T) -> u64) {
        let (head, rest) = xs.split_at(xs.len().min((8 - self.fill) % 8));
        head.iter().for_each(|&x| self.word(word(x)));
        let (stripes, tail) = rest.as_chunks::<8>();
        stripes.iter().for_each(|s| self.stripe(s.map(&word)));
        tail.iter().for_each(|&x| self.word(word(x)));
    }

    /// A length, then its words: the stream stays self-delimiting.
    fn run<T: Copy>(&mut self, xs: &[T], word: impl Fn(T) -> u64) {
        self.word(xs.len() as u64);
        self.words(xs, word);
    }

    /// A length, then the bytes packed into words, the last zero-padded.
    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn stripe(&mut self, w: [u64; 8]) {
        let at = (self.stripes % 16) as usize;
        let s = &STRIPE_SECRET[at..at + 8];
        for i in 0..8 {
            let k = w[i] ^ s[i];
            let product = (k & 0xffff_ffff) * (k >> 32);
            self.acc[i] = self.acc[i].wrapping_add(w[i ^ 1]).wrapping_add(product);
        }
        self.stripes += 1;
        if self.stripes.is_multiple_of(16) {
            for (a, s) in self.acc.iter_mut().zip(&STRIPE_SECRET[16..]) {
                *a = (*a ^ (*a >> 47) ^ s).wrapping_mul(0x9e37_79b1);
            }
        }
    }

    fn finish(mut self) -> u128 {
        let words = self.stripes * 8 + self.fill as u64;
        while self.fill > 0 {
            self.word(0);
        }
        let merge = |s: &[u64; 8], init: u64| {
            splitmix64((0..8).step_by(2).fold(init, |r, i| {
                let p = (self.acc[i] ^ s[i]) as u128 * (self.acc[i + 1] ^ s[i + 1]) as u128;
                r.wrapping_add(p as u64 ^ (p >> 64) as u64)
            }))
        };
        ((merge(&MERGE_HI, !words) as u128) << 64) | merge(&MERGE_LO, words) as u128
    }
}

/// The cache key of one request, hashed from the operands where they lie.
/// The word stream: the problem's length and bytes, the object count,
/// then per object its kind tag and payload, every variable-length run
/// preceded by its length — so requests are equal exactly when their
/// canonical encodings are (raw bits: −0.0 ≠ 0.0). Public so tests can
/// assert keying properties directly.
pub fn solve_key(problem: &str, inputs: &[DataObject]) -> u128 {
    let mut h = KeyHasher { acc: [0; 8], pending: [0; 8], fill: 0, stripes: 0 };
    h.bytes(problem.as_bytes());
    h.word(inputs.len() as u64);
    for obj in inputs {
        h.word(obj.kind().tag() as u64);
        match obj {
            DataObject::Int(v) => h.word(*v as u64),
            DataObject::Double(v) => h.word(v.to_bits()),
            DataObject::Vector(v) => h.run(v, f64::to_bits),
            DataObject::Matrix(m) => {
                h.words(&[m.rows(), m.cols()], |x| x as u64);
                h.words(m.as_slice(), f64::to_bits);
            }
            DataObject::Sparse(s) => {
                let (row_ptr, col_idx, values) = s.parts();
                h.words(&[s.rows(), s.cols()], |x| x as u64);
                h.run(row_ptr, |x| x as u64);
                h.run(col_idx, |x| x as u64);
                h.run(values, f64::to_bits);
            }
            DataObject::Text(t) => h.bytes(t.as_bytes()),
        }
    }
    h.finish()
}

/// Problems whose outputs are *not* a pure function of their inputs.
///
/// `quad_mc` with seed 0 draws fresh server-side entropy, so two
/// bit-identical submissions must yield independent estimates — serving a
/// cached reply (or coalescing concurrent submissions onto one solve)
/// would silently collapse a Monte Carlo ensemble onto a single sample.
/// The cache declines these problems outright; each decline is counted
/// under `server.cache_bypass_nondet`.
const NONDETERMINISTIC_PROBLEMS: &[&str] = &["quad_mc"];

/// One cached reply: the marshaled outputs, the original solve's compute
/// seconds, and the CRC-32 stamped over the bytes at insert time.
struct Entry {
    bytes: Arc<Vec<u8>>,
    compute_secs: f64,
    crc: u32,
    /// Last-use sequence number; stale queue slots are skipped when it
    /// disagrees (amortized-O(1) LRU without a linked list).
    seq: u64,
}

impl Entry {
    fn cost(&self) -> usize {
        self.bytes.len() + ENTRY_OVERHEAD
    }
}

struct Store {
    entries: HashMap<u128, Entry>,
    /// Usage order, oldest first: `(key, seq)` pairs; a pair whose seq no
    /// longer matches its entry is a stale re-use marker and is skipped.
    order: VecDeque<(u128, u64)>,
    total_bytes: usize,
    next_seq: u64,
}

impl Store {
    /// Queue `key` as used at `next_seq`, which its entry already holds.
    /// Stale slots are dropped once they outnumber the live ones, so a
    /// store whose working set fits its budget — and so never evicts —
    /// still keeps the queue O(entries), at amortised O(1) per use.
    fn push_order(&mut self, key: u128) {
        self.order.push_back((key, self.next_seq));
        self.next_seq += 1;
        if self.order.len() > 2 * self.entries.len() + 16 {
            self.order.retain(|(k, seq)| self.entries.get(k).is_some_and(|e| e.seq == *seq));
        }
    }
}

/// The leader's published outcome: the shared encoded reply bytes with
/// the compute seconds and insert CRC, or the error's `(code, detail)` —
/// errors are propagated to waiters, never cached.
type SlotOutcome = std::result::Result<(Arc<Vec<u8>>, f64, u32), (u32, String)>;

/// What an in-flight solve eventually publishes to its joined waiters.
enum SlotState {
    Running,
    Done(SlotOutcome),
}

struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

/// Outcome of [`SolveCache::probe`].
pub(crate) enum Probe {
    /// A non-deterministic problem: solve it uncached.
    Declined,
    /// Cached reply, already CRC-verified and decoded.
    Hit(Solved),
    /// No reply and no in-flight solve: the caller must solve and
    /// complete the token with the outcome.
    Leader(LeaderToken),
    /// An identical solve is running; wait on it.
    Join(Waiter),
}

/// Obligation to publish a solve outcome. If dropped without publishing
/// (a panic on the solve path), waiters receive an internal error rather
/// than hanging.
pub(crate) struct LeaderToken {
    cache: Arc<Shared>,
    key: u128,
    published: bool,
}

impl LeaderToken {
    /// Publish the solve's outcome. A solved one is encoded, CRC-stamped
    /// and inserted (unless the entry alone exceeds the byte budget), and
    /// every joined waiter wakes to the shared reply; a failed one wakes
    /// them to its error and caches nothing, so the next identical request
    /// re-runs.
    pub(crate) fn complete(mut self, outcome: std::result::Result<&Solved, &NetSolveError>) {
        self.published = true;
        match outcome {
            Ok(solved) => self.cache.publish_ok(self.key, &solved.outputs, solved.compute_secs),
            Err(e) => self.cache.finish(self.key, Err((e.code(), e.detail().to_string()))),
        }
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        if !self.published {
            let code = NetSolveError::Internal(String::new()).code();
            self.cache.finish(self.key, Err((code, "coalesced solve abandoned by its leader".into())));
        }
    }
}

/// A handle onto an in-flight solve; blocks until the leader publishes.
pub(crate) struct Waiter {
    cache: Arc<Shared>,
    slot: Arc<Slot>,
}

impl Waiter {
    /// Block until the coalesced solve completes, then return the shared
    /// reply (serve-CRC-checked and decoded) or the propagated error.
    pub(crate) fn wait(self) -> Result<Solved> {
        let mut state = self.slot.state.lock();
        while matches!(*state, SlotState::Running) {
            state = self
                .slot
                .cond
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        match &*state {
            SlotState::Running => unreachable!("loop exits only when done"),
            SlotState::Done(Ok((bytes, compute_secs, crc))) => self
                .cache
                .serve_checked(bytes, *crc)
                .map(|outputs| Solved { outputs, compute_secs: *compute_secs, cached: true }),
            SlotState::Done(Err((code, detail))) => {
                Err(NetSolveError::from_code(*code, detail.clone()))
            }
        }
    }
}

netsolve_obs::instruments! {
    /// The cache's `server.cache_*` instruments, on its core's registry
    /// once a cache is installed.
    pub(crate) struct CacheInstruments {
        hits: counter = "server.cache_hits",
        misses: counter = "server.cache_misses",
        coalesced: counter = "server.cache_coalesced",
        inserts: counter = "server.cache_inserts",
        evictions: counter = "server.cache_evictions",
        insert_crcs: counter = "server.cache_insert_crcs",
        serve_crcs: counter = "server.cache_serve_crcs",
        corrupt_dropped: counter = "server.cache_corrupt_dropped",
        uncacheable: counter = "server.cache_uncacheable",
        bypass_nondet: counter = "server.cache_bypass_nondet",
        bytes_gauge: gauge = "server.cache_bytes",
        entries_gauge: gauge = "server.cache_entries",
    }
}

struct Shared {
    byte_budget: usize,
    store: Mutex<Store>,
    inflight: Mutex<HashMap<u128, Arc<Slot>>>,
    m: CacheInstruments,
}

/// The server's solve cache. See the module docs for the design.
#[derive(Clone)]
pub struct SolveCache {
    shared: Arc<Shared>,
}

impl SolveCache {
    /// A cache bounded to `byte_budget` payload bytes, counting under
    /// `server.cache_*` in `metrics`.
    pub fn new(byte_budget: usize, metrics: &MetricsRegistry) -> Self {
        SolveCache {
            shared: Arc::new(Shared {
                byte_budget,
                store: Mutex::new(Store {
                    entries: HashMap::new(),
                    order: VecDeque::new(),
                    total_bytes: 0,
                    next_seq: 0,
                }),
                inflight: Mutex::new(HashMap::new()),
                m: CacheInstruments::new(metrics),
            }),
        }
    }

    /// Probe for one request: decline a non-deterministic problem — its
    /// lookup *and* its coalescing, since joining one would alias what are
    /// independent draws — else key the operands where they lie and serve
    /// a verified hit, join an in-flight identical solve, or become the
    /// leader obliged to solve and publish.
    pub(crate) fn probe(&self, problem: &str, inputs: &[DataObject]) -> Probe {
        if NONDETERMINISTIC_PROBLEMS.contains(&problem) {
            self.shared.m.bypass_nondet.inc();
            return Probe::Declined;
        }
        let key = solve_key(problem, inputs);
        // Hit path: verify + decode *outside* the store lock so a large
        // decode cannot stall unrelated requests.
        if let Some((bytes, compute_secs, crc)) = self.shared.lookup(key) {
            match self.shared.serve_checked(&bytes, crc) {
                Ok(outputs) => {
                    self.shared.m.hits.inc();
                    return Probe::Hit(Solved { outputs, compute_secs, cached: true });
                }
                Err(_) => {
                    // Entry failed its serve CRC or decode: drop it and
                    // fall through to a miss so the request re-solves.
                    self.shared.drop_corrupt(key, &bytes);
                }
            }
        }
        let mut inflight = self.shared.inflight.lock();
        if let Some(slot) = inflight.get(&key) {
            self.shared.m.coalesced.inc();
            return Probe::Join(Waiter { cache: Arc::clone(&self.shared), slot: Arc::clone(slot) });
        }
        let slot =
            Arc::new(Slot { state: Mutex::new(SlotState::Running), cond: Condvar::new() });
        inflight.insert(key, slot);
        self.shared.m.misses.inc();
        Probe::Leader(LeaderToken { cache: Arc::clone(&self.shared), key, published: false })
    }

    /// Test hook: flip one byte in the stored reply of up to `limit`
    /// cached entries *without* touching their insert CRCs, emulating
    /// in-memory corruption (`usize::MAX`: a whole-store sweep for the
    /// chaos soak). Returns how many entries were corrupted.
    #[doc(hidden)]
    pub fn corrupt_entries_for_test(&self, limit: usize) -> usize {
        let mut store = self.shared.store.lock();
        let mut corrupted = 0;
        for entry in store.entries.values_mut().filter(|e| !e.bytes.is_empty()).take(limit) {
            let mut bytes = (*entry.bytes).clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            entry.bytes = Arc::new(bytes);
            corrupted += 1;
        }
        corrupted
    }

    /// Current entry count (tests and stats).
    pub fn entries(&self) -> usize {
        self.shared.store.lock().entries.len()
    }
}

impl Shared {
    /// Fetch a hit's shared bytes (bumping its LRU position) without
    /// decoding under the lock.
    fn lookup(&self, key: u128) -> Option<(Arc<Vec<u8>>, f64, u32)> {
        let mut store = self.store.lock();
        let seq = store.next_seq;
        let entry = store.entries.get_mut(&key)?;
        entry.seq = seq;
        let out = (Arc::clone(&entry.bytes), entry.compute_secs, entry.crc);
        store.push_order(key);
        Some(out)
    }

    /// Serve-side CRC + decode of a stored reply. Every successful serve
    /// re-verifies the insert-time CRC, so a corrupted entry is caught
    /// here — before any byte reaches a client.
    fn serve_checked(&self, bytes: &[u8], crc: u32) -> Result<Vec<DataObject>> {
        self.m.serve_crcs.inc();
        if crc32(bytes) != crc {
            return Err(NetSolveError::Corrupt("cached reply failed serve-time CRC".into()));
        }
        from_bytes(bytes)
            .map_err(|e| NetSolveError::Corrupt(format!("cached reply failed decode: {e}")))
    }

    /// Remove the entry whose stored `bytes` failed their serve check.
    /// Concurrent probers may all fail the same entry: only the one that
    /// still finds those bytes stored removes and counts it, and a healthy
    /// re-solve published in between is left alone.
    fn drop_corrupt(&self, key: u128, bytes: &Arc<Vec<u8>>) {
        let mut store = self.store.lock();
        if store.entries.get(&key).is_some_and(|e| Arc::ptr_eq(&e.bytes, bytes)) {
            let entry = store.entries.remove(&key).expect("checked above");
            self.m.corrupt_dropped.inc();
            store.total_bytes -= entry.cost();
            self.m.bytes_gauge.set(store.total_bytes as i64);
            self.m.entries_gauge.set(store.entries.len() as i64);
        }
    }

    fn publish_ok(&self, key: u128, outputs: &[DataObject], compute_secs: f64) {
        let bytes = Arc::new(to_bytes(outputs));
        self.m.insert_crcs.inc();
        let crc = crc32(&bytes);
        let cost = bytes.len() + ENTRY_OVERHEAD;
        if cost <= self.byte_budget {
            let mut store = self.store.lock();
            let entry = Entry { bytes: Arc::clone(&bytes), compute_secs, crc, seq: store.next_seq };
            if let Some(prev) = store.entries.insert(key, entry) {
                store.total_bytes -= prev.cost();
            }
            store.total_bytes += cost;
            store.push_order(key);
            self.m.inserts.inc();
            self.evict_over_budget(&mut store);
            self.m.bytes_gauge.set(store.total_bytes as i64);
            self.m.entries_gauge.set(store.entries.len() as i64);
        } else {
            // Too large to ever fit: coalescing still applies, caching
            // does not.
            self.m.uncacheable.inc();
        }
        // Publish *after* the cache insert so there is no window where a
        // new arrival finds neither the entry nor the in-flight slot.
        self.finish(key, Ok((bytes, compute_secs, crc)));
    }

    fn finish(
        &self,
        key: u128,
        outcome: SlotOutcome,
    ) {
        let slot = self.inflight.lock().remove(&key);
        if let Some(slot) = slot {
            *slot.state.lock() = SlotState::Done(outcome);
            slot.cond.notify_all();
        }
    }

    fn evict_over_budget(&self, store: &mut Store) {
        while store.total_bytes > self.byte_budget {
            let Some((key, seq)) = store.order.pop_front() else { break };
            let stale = store.entries.get(&key).map(|e| e.seq != seq).unwrap_or(true);
            if stale {
                continue;
            }
            let entry = store.entries.remove(&key).expect("checked above");
            store.total_bytes -= entry.cost();
            self.m.evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cache(budget: usize) -> (SolveCache, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        (SolveCache::new(budget, &metrics), metrics)
    }

    fn vec_obj(n: usize, fill: f64) -> DataObject {
        DataObject::Vector(vec![fill; n])
    }

    fn solved(outputs: Vec<DataObject>, compute_secs: f64) -> Result<Solved> {
        Ok(Solved { outputs, compute_secs, cached: false })
    }

    #[test]
    fn distinct_problems_over_identical_bytes_get_distinct_keys() {
        let inputs = vec![vec_obj(64, 1.5)];
        assert_ne!(solve_key("dnrm2", &inputs), solve_key("vsort", &inputs));
        // And the key is stable for identical requests.
        assert_eq!(solve_key("dnrm2", &inputs), solve_key("dnrm2", &inputs.clone()));
    }

    /// The key since it is hashed in place (XXH3's loop over the word
    /// stream) — a decision, taken for speed: keys never leave the
    /// process, so a new value here breaks nothing, but it should never be
    /// the side effect of editing a shared mixing function.
    #[test]
    fn solve_key_is_pinned() {
        let inputs = [
            DataObject::Vector(vec![1.0, -2.5, 3.25]),
            DataObject::Int(7),
        ];
        assert_eq!(
            solve_key("dgesv", &inputs),
            0x0e2e_173f_8077_f7c3_c0ad_14c7_088d_0f23
        );
    }

    /// Flipping any one byte of a 1 KiB operand changes the key, at every
    /// offset.
    #[test]
    fn every_byte_of_the_operand_reaches_the_key() {
        let mut operand: Vec<f64> = (0..128).map(|i| i as f64 * 0.75 - 3.0).collect();
        let key = |operand: &[f64]| solve_key("dgesv", &[DataObject::Vector(operand.to_vec())]);
        let unflipped = key(&operand);
        for at in 0..operand.len() * 8 {
            let (word, shift) = (at / 8, at % 8 * 8);
            operand[word] = f64::from_bits(operand[word].to_bits() ^ (0x10 << shift));
            assert_ne!(key(&operand), unflipped, "flip at byte {at}");
            operand[word] = f64::from_bits(operand[word].to_bits() ^ (0x10 << shift));
        }
    }

    #[test]
    fn shape_discriminates_even_with_identical_payload_bytes() {
        // A 2x2 matrix and a 4-vector carry the same 32 payload bytes;
        // the canonical encoding's kind tag + dims must split them.
        let m = netsolve_core::Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_ne!(
            solve_key("p", &[DataObject::Matrix(m)]),
            solve_key("p", &[DataObject::Vector(v)])
        );
    }

    /// Each row is two requests whose canonical encodings differ only in
    /// how a field is framed — kind, shape, a run boundary, an index — and
    /// must not share a key.
    #[test]
    fn every_field_of_the_stream_discriminates() {
        let data: Vec<f64> = (0..6).map(f64::from).collect();
        let matrix = |r, c| {
            DataObject::Matrix(netsolve_core::Matrix::from_col_major(r, c, data.clone()).unwrap())
        };
        let sparse = |cols: [usize; 2]| {
            let triplets = [(0, cols[0], 1.0), (1, cols[1], 2.0)];
            DataObject::Sparse(netsolve_core::CsrMatrix::from_triplets(2, 2, &triplets).unwrap())
        };
        let text = |t: &str| DataObject::Text(t.into());
        let rows = [
            (
                "int vs double bits",
                ("p", vec![DataObject::Int(7)]),
                ("p", vec![DataObject::Double(f64::from_bits(7))]),
            ),
            ("2x3 vs 3x2", ("p", vec![matrix(2, 3)]), ("p", vec![matrix(3, 2)])),
            (
                "vector boundary",
                ("p", vec![DataObject::Vector(vec![1.0, 2.0]), DataObject::Vector(vec![3.0])]),
                ("p", vec![DataObject::Vector(vec![1.0]), DataObject::Vector(vec![2.0, 3.0])]),
            ),
            ("text boundary", ("p", vec![text("ab"), text("")]), ("p", vec![text("a"), text("b")])),
            ("sparse col_idx", ("p", vec![sparse([0, 1])]), ("p", vec![sparse([1, 0])])),
            ("problem vs text", ("ab", vec![]), ("a", vec![text("b")])),
        ];
        for (what, (p1, in1), (p2, in2)) in rows {
            assert_ne!(solve_key(p1, &in1), solve_key(p2, &in2), "{what}");
        }
    }

    #[test]
    fn every_bit_flip_changes_both_halves_of_the_key() {
        let mut operand: Vec<f64> = (0..128).map(|i| i as f64 * 0.75 - 3.0).collect();
        let key = |operand: &[f64]| solve_key("dgesv", &[DataObject::Vector(operand.to_vec())]);
        let unflipped = key(&operand);
        for bit in 0..operand.len() * 64 {
            operand[bit / 64] = f64::from_bits(operand[bit / 64].to_bits() ^ (1 << (bit % 64)));
            let flipped = key(&operand);
            assert_ne!(flipped as u64, unflipped as u64, "low half, bit {bit}");
            assert_ne!(flipped >> 64, unflipped >> 64, "high half, bit {bit}");
            operand[bit / 64] = f64::from_bits(operand[bit / 64].to_bits() ^ (1 << (bit % 64)));
        }
    }

    /// 2^16 variants of a `cached_mix`-sized operand, each one ulp up or
    /// down at one element, give 2^16 distinct values in each half.
    #[test]
    fn one_ulp_variants_never_collide_in_either_half() {
        fn cell(input: &mut [DataObject; 1], at: usize) -> &mut f64 {
            let DataObject::Matrix(m) = &mut input[0] else { unreachable!() };
            &mut m.as_mut_slice()[at]
        }
        let mut rng = netsolve_core::Rng64::new(7);
        let mut input = [DataObject::Matrix(netsolve_core::Matrix::random(192, 192, &mut rng))];
        let (mut lo, mut hi) = (HashSet::new(), HashSet::new());
        for variant in 0..1usize << 16 {
            let at = variant / 2;
            let bits = cell(&mut input, at).to_bits();
            let nudged = if variant % 2 == 0 { bits + 1 } else { bits - 1 };
            *cell(&mut input, at) = f64::from_bits(nudged);
            let key = solve_key("dgesv", &input);
            lo.insert(key as u64);
            hi.insert((key >> 64) as u64);
            *cell(&mut input, at) = f64::from_bits(bits);
        }
        assert_eq!((lo.len(), hi.len()), (1 << 16, 1 << 16));
    }

    #[test]
    fn hit_after_leader_publishes() {
        let (cache, _) = cache(1 << 20);
        let inputs = [vec_obj(4, 1.0)];
        let token = match cache.probe("ddot", &inputs) {
            Probe::Leader(t) => t,
            _ => panic!("first probe must lead"),
        };
        token.complete(solved(vec![DataObject::Double(42.0)], 0.25).as_ref());
        match cache.probe("ddot", &inputs) {
            Probe::Hit(Solved { outputs, compute_secs, cached }) => {
                assert_eq!(outputs[0].as_double().unwrap(), 42.0);
                assert_eq!((compute_secs, cached), (0.25, true));
            }
            _ => panic!("second probe must hit"),
        }
    }

    #[test]
    fn errors_propagate_to_waiters_and_are_not_cached() {
        let (cache, _) = cache(1 << 20);
        let inputs = [vec_obj(4, 0.0)];
        let token = match cache.probe("dgesv", &inputs) {
            Probe::Leader(t) => t,
            _ => panic!(),
        };
        let waiter = match cache.probe("dgesv", &inputs) {
            Probe::Join(w) => w,
            _ => panic!("second identical probe must join"),
        };
        token.complete(Err(NetSolveError::Numerical("singular".into())).as_ref());
        let err = waiter.wait().unwrap_err();
        assert!(matches!(err, NetSolveError::Numerical(_)), "{err}");
        // Not cached: the next probe leads again.
        assert!(matches!(cache.probe("dgesv", &inputs), Probe::Leader(_)));
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn dropped_leader_unblocks_waiters() {
        let (cache, _) = cache(1 << 20);
        let inputs = [vec_obj(2, 2.0)];
        let token = match cache.probe("ddot", &inputs) {
            Probe::Leader(t) => t,
            _ => panic!(),
        };
        let waiter = match cache.probe("ddot", &inputs) {
            Probe::Join(w) => w,
            _ => panic!(),
        };
        drop(token); // leader panicked / abandoned the solve
        let err = waiter.wait().unwrap_err();
        assert!(err.detail().contains("abandoned"), "{err}");
        assert!(matches!(cache.probe("ddot", &inputs), Probe::Leader(_)));
    }

    #[test]
    fn lru_evicts_oldest_under_byte_budget() {
        // Budget fits two ~160-byte entries (vector of 16 f64 + overhead),
        // not three.
        let (cache, metrics) = cache(450);
        let keys: Vec<[DataObject; 1]> = (0..4).map(|i| [vec_obj(1, i as f64)]).collect();
        let probe = |i: usize| cache.probe("p", &keys[i]);
        for i in 0..3 {
            match probe(i) {
                Probe::Leader(t) => t.complete(solved(vec![vec_obj(16, 0.0)], 0.1).as_ref()),
                _ => panic!(),
            }
        }
        assert_eq!(cache.entries(), 2, "third insert must evict");
        // Oldest (keys[0]) is gone; the newer two survive.
        assert!(matches!(probe(0), Probe::Leader(_)));
        assert_eq!(metrics.snapshot("s").counter("server.cache_evictions"), 1);
        // Touching keys[1] then inserting another must evict keys[2].
        match probe(0) {
            Probe::Leader(t) => t.complete(Err(NetSolveError::Internal("skip".into())).as_ref()),
            _ => panic!(),
        }
        assert!(matches!(probe(1), Probe::Hit(_)));
        match probe(3) {
            Probe::Leader(t) => t.complete(solved(vec![vec_obj(16, 0.0)], 0.1).as_ref()),
            _ => panic!(),
        }
        assert!(matches!(probe(1), Probe::Hit(_)), "recently used survives");
        assert!(matches!(probe(2), Probe::Leader(_)), "LRU victim evicted");
    }

    fn order_len(cache: &SolveCache) -> usize {
        cache.shared.store.lock().order.len()
    }

    /// A working set that fits its budget never evicts, and eviction was
    /// once the only thing that popped the recency queue: every hit grew it.
    #[test]
    fn recency_queue_stays_bounded_when_nothing_is_evicted() {
        let (cache, _) = cache(4 << 20);
        let inputs = [vec_obj(4, 1.0)];
        match cache.probe("ddot", &inputs) {
            Probe::Leader(t) => t.complete(solved(vec![DataObject::Double(4.0)], 0.1).as_ref()),
            _ => panic!(),
        }
        for _ in 0..100_000 {
            assert!(matches!(cache.probe("ddot", &inputs), Probe::Hit(_)));
        }
        assert!(order_len(&cache) <= 2 * cache.entries() + 17, "{} slots", order_len(&cache));
    }

    /// Dropping stale slots must not reorder the live ones: under a long
    /// mix of hits and inserts over a budget of four entries, the cache's
    /// residents and eviction count track a plain list-based LRU model.
    #[test]
    fn lru_victims_match_a_model_under_mixed_hits_and_inserts() {
        let (cache, metrics) = cache(4 * 204);
        let inputs: Vec<[DataObject; 1]> = (0..10).map(|i| [vec_obj(1, i as f64)]).collect();
        let mut model: Vec<u128> = Vec::new(); // least recent first
        let mut evictions = 0;
        let mut rng = netsolve_core::Rng64::new(11);
        for step in 0..5_000 {
            // Zipf-ish: the low keys mostly hit, the high ones churn.
            let input = &inputs[(rng.next_f64().powi(3) * inputs.len() as f64) as usize];
            let key = solve_key("p", input);
            match cache.probe("p", input) {
                Probe::Hit(_) => model.retain(|&k| k != key),
                Probe::Leader(t) => {
                    t.complete(solved(vec![vec_obj(16, 0.0)], 0.1).as_ref());
                    if model.len() == 4 {
                        model.remove(0);
                        evictions += 1;
                    }
                }
                Probe::Join(_) | Probe::Declined => panic!("nothing is in flight"),
            }
            model.push(key);
            let resident: HashSet<u128> = cache.shared.store.lock().entries.keys().copied().collect();
            assert_eq!(resident, model.iter().copied().collect(), "step {step}");
        }
        assert_eq!(metrics.snapshot("s").counter("server.cache_evictions"), evictions);
        assert!(order_len(&cache) <= 2 * cache.entries() + 17);
    }

    #[test]
    fn corrupted_entry_is_never_served() {
        let (cache, metrics) = cache(1 << 20);
        let inputs = [vec_obj(8, 1.0)];
        match cache.probe("ddot", &inputs) {
            Probe::Leader(t) => t.complete(solved(vec![vec_obj(8, 7.0)], 0.1).as_ref()),
            _ => panic!(),
        }
        assert_eq!(cache.corrupt_entries_for_test(1), 1);
        // The probe must NOT hit: serve-CRC catches the flip, the entry
        // is dropped, and the caller becomes the leader re-solving.
        match cache.probe("ddot", &inputs) {
            Probe::Leader(t) => t.complete(solved(vec![vec_obj(8, 7.0)], 0.1).as_ref()),
            Probe::Hit(_) => panic!("corrupted entry served"),
            Probe::Join(_) | Probe::Declined => panic!("nothing should be in flight"),
        }
        // Healthy again after the re-solve.
        assert!(matches!(cache.probe("ddot", &inputs), Probe::Hit(_)));
        let snap = metrics.snapshot("s");
        assert_eq!(snap.counter("server.cache_corrupt_dropped"), 1);
        // Serve-CRC ran on the corrupted probe and the healthy one;
        // insert-CRC ran on the original publish and the re-solve.
        assert!(snap.counter("server.cache_serve_crcs") >= 2);
        assert!(snap.counter("server.cache_insert_crcs") >= 2);
    }

    #[test]
    fn oversized_results_coalesce_but_do_not_cache() {
        let (cache, metrics) = cache(128);
        let inputs = [vec_obj(1, 0.0)];
        let token = match cache.probe("big", &inputs) {
            Probe::Leader(t) => t,
            _ => panic!(),
        };
        let waiter = match cache.probe("big", &inputs) {
            Probe::Join(w) => w,
            _ => panic!(),
        };
        token.complete(solved(vec![vec_obj(64, 1.0)], 0.5).as_ref()); // 512B > 128B budget
        let Solved { outputs, cached, .. } = waiter.wait().unwrap();
        assert_eq!((outputs[0].as_vector().unwrap().len(), cached), (64, true));
        assert_eq!(cache.entries(), 0);
        assert_eq!(metrics.snapshot("s").counter("server.cache_uncacheable"), 1);
    }

    #[test]
    fn concurrent_identical_probes_produce_one_leader() {
        let (cache, metrics) = cache(1 << 20);
        let cache = Arc::new(cache);
        let inputs = [vec_obj(32, 3.0)];
        let leaders = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let leaders = Arc::clone(&leaders);
                let barrier = Arc::clone(&barrier);
                let inputs = inputs.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let solved = match cache.probe("ddot", &inputs) {
                        Probe::Leader(t) => {
                            leaders.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            // Hold the solve open long enough for the
                            // others to join.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            let solved = solved(vec![DataObject::Double(6.0)], 0.2);
                            t.complete(solved.as_ref());
                            solved
                        }
                        Probe::Join(w) => w.wait(),
                        Probe::Hit(hit) => Ok(hit),
                        Probe::Declined => panic!("ddot is deterministic"),
                    };
                    solved.unwrap().outputs[0].as_double().unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 6.0);
        }
        assert_eq!(leaders.load(std::sync::atomic::Ordering::Relaxed), 1);
        let snap = metrics.snapshot("s");
        assert_eq!(snap.counter("server.cache_misses"), 1);
        assert_eq!(
            snap.counter("server.cache_coalesced") + snap.counter("server.cache_hits"),
            7,
            "everyone else joined or hit"
        );
    }
}
