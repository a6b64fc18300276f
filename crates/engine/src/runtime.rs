//! Query runtime: join hash tables, aggregation hash tables, output and
//! materialisation buffers, and the runtime functions generated code calls
//! (§IV-E: "we can call existing C++ code from both generated machine code
//! and from our VM" — here the "C++ runtime" is this module).
//!
//! Threading model (morsel-driven, §III-A), each sink a two-phase build:
//! * join builds append entries to *thread-local* arenas; in phase 2 every
//!   worker links its own arena into one shared bucket array
//!   ([`JoinBuild`]), giving an immutable chained hash table that probes
//!   read lock-free;
//! * aggregations run in *thread-local* tables (no atomics on the hot
//!   accumulate path); in phase 2 every worker merges one hash partition
//!   of all of them ([`merge_agg_partition`]);
//! * output/materialisation buffers are thread-local and concatenated.
//!
//! Generated code stages a row in the worker context's row buffer, then
//! makes one runtime call — except probes and accumulator updates, which are
//! fully inlined by the code generator.

use crate::plan::{AggFunc, SortKey};
use aqe_vm::interp::ExecError;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a over 64-bit lanes with a final avalanche; the code generator emits
/// exactly this sequence, so host-built tables and generated probes agree.
#[inline]
pub fn hash_keys(keys: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &k in keys {
        h = (h ^ k).wrapping_mul(0x100_0000_01b3);
    }
    h ^ (h >> 32)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

// ---------------------------------------------------------------------------
// Join hash table
// ---------------------------------------------------------------------------

/// An immutable chained hash table built once per join (two-phase build).
/// Entries stay where the build workers appended them, one arena per
/// worker, each entry laid out `[next_addr, key0.., payload0..]`;
/// `buckets[hash & mask]` holds the address of a chain's first entry.
pub struct JoinHt {
    buckets: Box<[AtomicU64]>,
    pub mask: u64,
    pub nkeys: usize,
    pub stride: usize,
    pub rows: usize,
    /// Owns the entries the buckets point into.
    _arenas: Vec<Vec<u64>>,
}

/// Phase 2 of a join build: the bucket array every build worker links its
/// own arena into, sized once all arenas are complete.
pub struct JoinBuild {
    buckets: Box<[AtomicU64]>,
    mask: u64,
    nkeys: usize,
    stride: usize,
    rows: usize,
}

impl JoinBuild {
    /// An empty table for `rows` entries of `nkeys + payload` fields.
    pub fn new(nkeys: usize, payload: usize, rows: usize) -> JoinBuild {
        let nbuckets = (rows * 2).next_power_of_two().max(8);
        // SAFETY: an all-zero bit pattern is a valid `AtomicU64` (value 0).
        // A large zeroed allocation comes from fresh pages, not a memset.
        let buckets = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(nbuckets).assume_init() };
        JoinBuild { buckets, mask: (nbuckets - 1) as u64, nkeys, stride: 1 + nkeys + payload, rows }
    }

    /// Link every entry of one arena into its bucket chain. Workers link
    /// their own arenas concurrently: each entry takes over its bucket's
    /// head with one atomic swap and points at the entry it displaced.
    /// `Relaxed` suffices: no chain is read until every linking thread has
    /// been joined, which orders all the swaps before any probe.
    pub fn link(&self, arena: &mut [u64]) {
        for e in arena.chunks_exact_mut(self.stride) {
            let b = (hash_keys(&e[1..1 + self.nkeys]) & self.mask) as usize;
            let addr = e.as_mut_ptr() as u64;
            e[0] = self.buckets[b].swap(addr, Ordering::Relaxed);
        }
    }

    /// The finished table; `arenas` are the linked arenas, which it keeps
    /// alive for as long as probes may follow their addresses.
    pub fn finish(self, arenas: Vec<Vec<u64>>) -> JoinHt {
        debug_assert_eq!(arenas.iter().map(|a| a.len() / self.stride).sum::<usize>(), self.rows);
        JoinHt {
            buckets: self.buckets,
            mask: self.mask,
            nkeys: self.nkeys,
            stride: self.stride,
            rows: self.rows,
            _arenas: arenas,
        }
    }
}

impl JoinHt {
    /// The bucket array's address, as generated probes read it.
    pub fn buckets_ptr(&self) -> u64 {
        self.buckets.as_ptr() as u64
    }

    /// Probe on the host side (used by tests).
    pub fn probe(&self, keys: &[u64]) -> Vec<&[u64]> {
        let mut out = Vec::new();
        let h = hash_keys(keys);
        let mut addr = self.buckets[(h & self.mask) as usize].load(Ordering::Relaxed);
        while addr != 0 {
            // SAFETY: every non-zero chain address is the start of a
            // `stride`-long entry in one of `_arenas`, which this table owns
            // and never resizes.
            let entry = unsafe { std::slice::from_raw_parts(addr as *const u64, self.stride) };
            if &entry[1..1 + self.nkeys] == keys {
                out.push(&entry[1..]);
            }
            addr = entry[0];
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Aggregation hash table (thread-local)
// ---------------------------------------------------------------------------

/// The raw header generated code reads on every tuple; `rt_agg_insert`
/// updates it on rehash. Field order is load-bearing (codegen offsets).
#[repr(C)]
pub struct AggHeader {
    pub buckets_ptr: u64,
    pub mask: u64,
    /// Pre-created single group for key-less aggregations.
    pub group0: u64,
}

const AGG_CHUNK_ROWS: usize = 1024;

/// A thread-local aggregation table. Entries live in chunked arenas so their
/// addresses stay stable across growth; layout `[next, keys.., accs..]`.
pub struct AggTable {
    pub header: Box<AggHeader>,
    buckets: Vec<u64>,
    chunks: Vec<Vec<u64>>,
    pub nkeys: usize,
    pub naccs: usize,
    pub stride: usize,
    pub count: usize,
    init: Vec<u64>,
}

impl AggTable {
    pub fn new(nkeys: usize, aggs: &[AggFunc]) -> AggTable {
        let naccs = aggs.len();
        let stride = 1 + nkeys + naccs;
        let nbuckets = 64usize;
        let buckets = vec![0u64; nbuckets];
        let mut t = AggTable {
            header: Box::new(AggHeader { buckets_ptr: 0, mask: (nbuckets - 1) as u64, group0: 0 }),
            buckets,
            chunks: vec![Vec::with_capacity(AGG_CHUNK_ROWS * stride)],
            nkeys,
            naccs,
            stride,
            count: 0,
            init: aggs.iter().map(|a| a.init_bits()).collect(),
        };
        t.header.buckets_ptr = t.buckets.as_ptr() as u64;
        if nkeys == 0 {
            let g = t.alloc_entry(&[]);
            t.header.group0 = g;
        }
        t
    }

    fn alloc_entry(&mut self, keys: &[u64]) -> u64 {
        let stride = self.stride;
        if self.chunks.last().unwrap().len() + stride > AGG_CHUNK_ROWS * stride {
            self.chunks.push(Vec::with_capacity(AGG_CHUNK_ROWS * stride));
        }
        let chunk = self.chunks.last_mut().unwrap();
        let at = chunk.len();
        chunk.push(0); // next
        chunk.extend_from_slice(keys);
        chunk.extend_from_slice(&self.init);
        debug_assert_eq!(chunk.len(), at + stride);
        self.count += 1;
        unsafe { chunk.as_ptr().add(at) as u64 }
    }

    /// Insert a new group for `keys` with `hash` and return its entry
    /// address. Called from generated code only after an inline probe
    /// missed.
    pub fn insert(&mut self, keys: &[u64], hash: u64) -> u64 {
        if (self.count + 1) * 10 > self.buckets.len() * 7 {
            self.grow();
        }
        let addr = self.alloc_entry(keys);
        let b = (hash & self.header.mask) as usize;
        unsafe { *(addr as *mut u64) = self.buckets[b] };
        self.buckets[b] = addr;
        addr
    }

    fn grow(&mut self) {
        let nbuckets = self.buckets.len() * 2;
        let mut buckets = vec![0u64; nbuckets];
        let mask = (nbuckets - 1) as u64;
        for chunk in &self.chunks {
            for e in (0..chunk.len()).step_by(self.stride) {
                let addr = unsafe { chunk.as_ptr().add(e) as u64 };
                let keys = &chunk[e + 1..e + 1 + self.nkeys];
                let b = (hash_keys(keys) & mask) as usize;
                unsafe { *(addr as *mut u64) = buckets[b] };
                buckets[b] = addr;
            }
        }
        self.buckets = buckets;
        self.header.buckets_ptr = self.buckets.as_ptr() as u64;
        self.header.mask = mask;
    }

    /// Iterate group rows as `[keys.., accs..]` slices.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.chunks.iter().flat_map(move |c| c.chunks_exact(self.stride).map(move |e| &e[1..]))
    }

    /// Group `g` (in insertion order) as `[keys.., accs..]`. Every chunk
    /// but the last holds exactly `AGG_CHUNK_ROWS` groups.
    fn group(&self, g: u32) -> &[u64] {
        let (c, r) = (g as usize / AGG_CHUNK_ROWS, g as usize % AGG_CHUNK_ROWS);
        &self.chunks[c][r * self.stride + 1..(r + 1) * self.stride]
    }
}

/// The merge partition of a group with hash `h`, out of `parts`: taken
/// from the high hash bits, so it is independent of the low bits that
/// pick buckets and merge slots.
#[inline]
fn merge_partition(h: u64, parts: usize) -> usize {
    (((h >> 32) * parts as u64) >> 32) as usize
}

/// One worker's aggregation table handed from phase 1 to phase 2 of the
/// aggregation: the table plus its group numbers bucketed by merge
/// partition (insertion order within each partition).
pub struct AggRun {
    table: AggTable,
    groups: Vec<u32>,
    /// Partition `p` is `groups[bounds[p]..bounds[p + 1]]`.
    bounds: Vec<usize>,
}

impl AggRun {
    pub fn new(table: AggTable, parts: usize) -> AggRun {
        let n = u32::try_from(table.count).expect("aggregation table exceeds 2^32 groups");
        let mut bounds = vec![0usize; parts + 1];
        let part: Vec<u32> = table
            .rows()
            .map(|row| {
                let p = merge_partition(hash_keys(&row[..table.nkeys]), parts);
                bounds[p + 1] += 1;
                p as u32
            })
            .collect();
        for p in 0..parts {
            bounds[p + 1] += bounds[p];
        }
        let mut fill = bounds.clone();
        let mut groups = vec![0u32; n as usize];
        for (g, p) in (0..n).zip(part) {
            groups[fill[p as usize]] = g;
            fill[p as usize] += 1;
        }
        AggRun { table, groups, bounds }
    }

    fn partition(&self, p: usize) -> impl Iterator<Item = &[u64]> {
        self.groups[self.bounds[p]..self.bounds[p + 1]].iter().map(|&g| self.table.group(g))
    }
}

/// Merge partition `p` of every worker's run into dense result rows
/// `[keys.., accs..]`. The first occurrence of a group is copied verbatim;
/// later ones fold in with `merge_acc` in `runs` order, so every group
/// folds in worker order however the partitions are spread over threads.
/// One flat open-addressing index, sized up front, maps groups to rows: no
/// allocation per group.
pub fn merge_agg_partition(
    runs: &[&AggRun],
    p: usize,
    aggs: &[AggFunc],
) -> Result<Vec<u64>, ExecError> {
    let n: usize = runs.iter().map(|r| r.bounds[p + 1] - r.bounds[p]).sum();
    if n == 0 {
        return Ok(Vec::new());
    }
    assert!(n < u32::MAX as usize, "aggregation partition exceeds 2^32 groups");
    let nkeys = runs[0].table.nkeys;
    let width = nkeys + aggs.len();
    // Slot = result row + 1 (0 = empty); load factor at most 1/2.
    let mask = (2 * n).next_power_of_two() - 1;
    let mut index = vec![0u32; mask + 1];
    let mut rows: Vec<u64> = Vec::with_capacity(n * width);
    let mut nrows = 0u32;
    for run in runs {
        debug_assert_eq!(run.table.nkeys, nkeys);
        for group in run.partition(p) {
            let (keys, accs) = group.split_at(nkeys);
            let mut slot = hash_keys(keys) as usize & mask;
            loop {
                let r = index[slot] as usize;
                if r == 0 {
                    nrows += 1;
                    index[slot] = nrows;
                    rows.extend_from_slice(group);
                    break;
                }
                let row = &mut rows[(r - 1) * width..r * width];
                if &row[..nkeys] == keys {
                    for (i, a) in aggs.iter().enumerate() {
                        row[nkeys + i] = merge_acc(a, row[nkeys + i], accs[i])?;
                    }
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
    }
    Ok(rows)
}

/// Merge thread-local aggregation tables into dense result rows
/// `[keys.., accs..]` (the source of the post-aggregation scan pipeline),
/// partition after partition on the calling thread. The engine runs the
/// same steps spread over its workers.
pub fn merge_agg_tables(
    tables: Vec<AggTable>,
    aggs: &[AggFunc],
    parts: usize,
) -> Result<Vec<u64>, ExecError> {
    let runs: Vec<AggRun> = tables.into_iter().map(|t| AggRun::new(t, parts)).collect();
    let runs: Vec<&AggRun> = runs.iter().collect();
    let mut rows = Vec::new();
    for p in 0..parts {
        rows.extend(merge_agg_partition(&runs, p, aggs)?);
    }
    Ok(rows)
}

fn merge_acc(f: &AggFunc, a: u64, b: u64) -> Result<u64, ExecError> {
    Ok(match f {
        AggFunc::SumI | AggFunc::CountStar => {
            (a as i64).checked_add(b as i64).ok_or(ExecError::Overflow)? as u64
        }
        AggFunc::SumF => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        AggFunc::MinI => (a as i64).min(b as i64) as u64,
        AggFunc::MaxI => (a as i64).max(b as i64) as u64,
        AggFunc::MinF => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            (if y < x { y } else { x }).to_bits()
        }
        AggFunc::MaxF => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            (if y > x { y } else { x }).to_bits()
        }
    })
}

// ---------------------------------------------------------------------------
// Sorting & output
// ---------------------------------------------------------------------------

/// Sort dense rows (width u64s each) by the given keys; truncate to `limit`.
pub fn sort_rows(rows: &mut Vec<u64>, width: usize, keys: &[SortKey], limit: Option<usize>) {
    if width == 0 {
        return;
    }
    let mut idx: Vec<usize> = (0..rows.len() / width).collect();
    idx.sort_by(|&x, &y| {
        for k in keys {
            let (a, b) = (rows[x * width + k.field], rows[y * width + k.field]);
            let ord = if k.float {
                f64::from_bits(a).total_cmp(&f64::from_bits(b))
            } else {
                (a as i64).cmp(&(b as i64))
            };
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(l) = limit {
        idx.truncate(l);
    }
    let mut out = Vec::with_capacity(idx.len() * width);
    for i in idx {
        out.extend_from_slice(&rows[i * width..(i + 1) * width]);
    }
    *rows = out;
}

// ---------------------------------------------------------------------------
// Worker context & runtime functions
// ---------------------------------------------------------------------------

/// Minimum number of u64 slots in the staging row buffer (the engine sizes
/// it to the widest row of the plan, with this floor).
pub const ROW_BUF_SLOTS: usize = 48;

/// Raw worker-context slot indices (codegen contract):
/// `[0]` = pointer to the Rust [`WorkerRt`], `[1]` = pointer to the row
/// buffer, `[2 + i]` = pointer to the [`AggHeader`] of aggregation `i`.
pub const WCTX_RT: usize = 0;
pub const WCTX_ROWBUF: usize = 1;
pub const WCTX_AGG_BASE: usize = 2;

/// Per-thread runtime state addressed from generated code.
pub struct WorkerRt {
    pub join_bufs: Vec<Vec<u64>>,
    pub agg_tables: Vec<AggTable>,
    pub mat_bufs: Vec<Vec<u64>>,
    pub out_buf: Vec<u64>,
    pub row_buf: Vec<u64>,
    /// Raw slot array handed to generated code as the `wctx` parameter.
    pub raw: Vec<u64>,
}

impl WorkerRt {
    pub fn new(njoins: usize, agg_shapes: &[(usize, Vec<AggFunc>)], nmats: usize) -> Box<WorkerRt> {
        Self::with_row_buf(njoins, agg_shapes, nmats, ROW_BUF_SLOTS)
    }

    pub fn with_row_buf(
        njoins: usize,
        agg_shapes: &[(usize, Vec<AggFunc>)],
        nmats: usize,
        row_buf_slots: usize,
    ) -> Box<WorkerRt> {
        let mut w = Box::new(WorkerRt {
            join_bufs: vec![Vec::new(); njoins],
            agg_tables: agg_shapes.iter().map(|(nk, a)| AggTable::new(*nk, a)).collect(),
            mat_bufs: vec![Vec::new(); nmats],
            out_buf: Vec::new(),
            row_buf: vec![0; row_buf_slots.max(ROW_BUF_SLOTS)],
            raw: Vec::new(),
        });
        let mut raw = vec![0u64; WCTX_AGG_BASE + agg_shapes.len()];
        raw[WCTX_RT] = &*w as *const WorkerRt as u64;
        raw[WCTX_ROWBUF] = w.row_buf.as_ptr() as u64;
        for (i, t) in w.agg_tables.iter().enumerate() {
            raw[WCTX_AGG_BASE + i] = &*t.header as *const AggHeader as u64;
        }
        w.raw = raw;
        w
    }

    pub fn wctx_ptr(&mut self) -> u64 {
        self.raw.as_ptr() as u64
    }
}

#[inline]
unsafe fn worker_of(args: *const u64) -> &'static mut WorkerRt {
    unsafe {
        let wctx = *args as *const u64;
        &mut *(*wctx.add(WCTX_RT) as *mut WorkerRt)
    }
}

/// `rt_join_append(wctx, ht_idx, nfields)`: append the staged row to the
/// thread-local build arena of join `ht_idx` as an entry
/// `[next, row..]`, ready to be linked in place by [`JoinBuild::link`].
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_join_append(args: *const u64, _ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let ht = *args.add(1) as usize;
        let n = *args.add(2) as usize;
        let arena = &mut w.join_bufs[ht];
        arena.push(0);
        arena.extend_from_slice(&w.row_buf[..n]);
    }
}

/// `rt_agg_insert(wctx, agg_idx, hash) -> entry_ptr`: insert a new group
/// with the staged keys.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_agg_insert(args: *const u64, ret: *mut u64) {
    unsafe {
        let WorkerRt { agg_tables, row_buf, .. } = worker_of(args);
        let table = &mut agg_tables[*args.add(1) as usize];
        *ret = table.insert(&row_buf[..table.nkeys], *args.add(2));
    }
}

/// `rt_mat_append(wctx, mat_idx, nfields)`.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_mat_append(args: *const u64, _ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let mat = *args.add(1) as usize;
        let n = *args.add(2) as usize;
        let row = &w.row_buf[..n];
        w.mat_bufs[mat].extend_from_slice(row);
    }
}

/// `rt_emit(wctx, nfields)`.
///
/// # Safety
/// Part of the generated-code runtime ABI (`codegen::runtime_fns`):
/// `args` must point at the argument slots the translator staged for this
/// call (first slot a valid worker-context pointer) and `ret` at a writable
/// return slot — guarantees the validated bytecode upholds.
pub unsafe fn rt_emit(args: *const u64, _ret: *mut u64) {
    unsafe {
        let w = worker_of(args);
        let n = *args.add(1) as usize;
        let row = &w.row_buf[..n];
        w.out_buf.extend_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a join table from per-worker rows of `nkeys + payload`
    /// fields: each worker's rows become an arena of entries, linked on a
    /// thread of its own as in the engine's phase 2.
    fn build_join(nkeys: usize, payload: usize, workers: &[Vec<u64>]) -> JoinHt {
        let width = nkeys + payload;
        let mut arenas: Vec<Vec<u64>> = workers
            .iter()
            .map(|rows| rows.chunks_exact(width).flat_map(|r| [&[0][..], r].concat()).collect())
            .collect();
        let rows = workers.iter().map(|r| r.len() / width).sum();
        let build = JoinBuild::new(nkeys, payload, rows);
        std::thread::scope(|s| {
            for arena in &mut arenas {
                let build = &build;
                s.spawn(move || build.link(arena));
            }
        });
        build.finish(arenas)
    }

    #[test]
    fn join_ht_build_and_probe() {
        // rows: key, payload
        let t0 = vec![1u64, 100, 2, 200, 1, 101];
        let t1 = vec![3u64, 300];
        let ht = build_join(1, 1, &[t0, t1]);
        assert_eq!(ht.rows, 4);
        let m1 = ht.probe(&[1]);
        assert_eq!(m1.len(), 2);
        let payloads: Vec<u64> = m1.iter().map(|e| e[1]).collect();
        assert!(payloads.contains(&100) && payloads.contains(&101));
        assert_eq!(ht.probe(&[3]).len(), 1);
        assert!(ht.probe(&[99]).is_empty());
    }

    #[test]
    fn join_ht_multi_key() {
        let rows = vec![1u64, 2, 77, 1, 3, 88];
        let ht = build_join(2, 1, &[rows]);
        assert_eq!(ht.probe(&[1, 2])[0][2], 77);
        assert!(ht.probe(&[2, 1]).is_empty(), "key order matters");
    }

    /// The parallel link phase against a reference multiset per key:
    /// duplicate keys within and across workers, empty worker arenas,
    /// 1–4 workers linking concurrently.
    #[test]
    fn parallel_join_build_matches_reference_multiset() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nkeys = rng.random_range(1..4usize);
            let payload = rng.random_range(0..3usize);
            let width = nkeys + payload;
            let domain = rng.random_range(1..40u64);
            let mut reference: BTreeMap<Vec<u64>, Vec<Vec<u64>>> = BTreeMap::new();
            let workers: Vec<Vec<u64>> = (0..rng.random_range(1..5usize))
                .map(|_| {
                    let n = if rng.random_bool(0.25) { 0 } else { rng.random_range(0..3000usize) };
                    let mut rows = Vec::with_capacity(n * width);
                    for _ in 0..n {
                        let row: Vec<u64> = (0..width)
                            .map(|f| {
                                if f < nkeys {
                                    rng.random_range(0..domain)
                                } else {
                                    rng.random_range(0..u64::MAX)
                                }
                            })
                            .collect();
                        reference.entry(row[..nkeys].to_vec()).or_default().push(row.clone());
                        rows.extend(row);
                    }
                    rows
                })
                .collect();
            let ht = build_join(nkeys, payload, &workers);
            assert_eq!(ht.rows, reference.values().map(Vec::len).sum::<usize>(), "seed {seed}");
            for (key, want) in &mut reference {
                let mut got: Vec<Vec<u64>> = ht.probe(key).iter().map(|e| e.to_vec()).collect();
                got.sort();
                want.sort();
                assert_eq!(&got, want, "seed {seed}, key {key:?}");
            }
            let absent = vec![domain; nkeys];
            assert!(ht.probe(&absent).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn agg_table_groups_and_grows() {
        let aggs = [AggFunc::SumI, AggFunc::CountStar];
        let mut t = AggTable::new(1, &aggs);
        // Insert 1000 distinct groups to force several rehashes.
        for k in 0..1000u64 {
            let h = hash_keys(&[k]);
            let addr = t.insert(&[k], h);
            unsafe {
                *(addr as *mut u64).add(2) = k * 2; // sum
                *(addr as *mut u64).add(3) = 1; // count
            }
        }
        assert_eq!(t.count, 1000);
        let rows = merge_agg_tables(vec![t], &aggs, 1).unwrap();
        assert_eq!(rows.len(), 1000 * 3);
        // find group 7
        let g7 = rows.chunks_exact(3).find(|r| r[0] == 7).unwrap();
        assert_eq!(g7[1], 14);
        assert_eq!(g7[2], 1);
    }

    #[test]
    fn keyless_agg_has_group0() {
        let aggs = [AggFunc::SumI];
        let t = AggTable::new(0, &aggs);
        assert_ne!(t.header.group0, 0);
        let rows = merge_agg_tables(vec![t], &aggs, 3).unwrap();
        assert_eq!(rows, vec![0]);
    }

    #[test]
    fn merge_combines_thread_tables() {
        let aggs = [AggFunc::SumI, AggFunc::MinI, AggFunc::MaxF];
        let mk = |k: u64, s: i64, mn: i64, mx: f64| {
            let mut t = AggTable::new(1, &aggs);
            let addr = t.insert(&[k], hash_keys(&[k]));
            unsafe {
                *(addr as *mut u64).add(2) = s as u64;
                *(addr as *mut u64).add(3) = mn as u64;
                *(addr as *mut u64).add(4) = mx.to_bits();
            }
            t
        };
        let rows = merge_agg_tables(vec![mk(5, 10, -3, 1.5), mk(5, 32, 7, 9.5)], &aggs, 2).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], 5);
        assert_eq!(rows[1] as i64, 42);
        assert_eq!(rows[2] as i64, -3);
        assert_eq!(f64::from_bits(rows[3]), 9.5);
    }

    #[test]
    fn merge_detects_sum_overflow() {
        let aggs = [AggFunc::SumI];
        let mk = |s: i64| {
            let mut t = AggTable::new(1, &aggs);
            let addr = t.insert(&[1], hash_keys(&[1]));
            unsafe { *(addr as *mut u64).add(2) = s as u64 };
            t
        };
        let r = merge_agg_tables(vec![mk(i64::MAX), mk(1)], &aggs, 2);
        assert_eq!(r.unwrap_err(), ExecError::Overflow);
    }

    /// A thread-local table holding `groups` (`[keys.., accs..]` rows with
    /// distinct keys), inserted the way generated code does.
    fn table_of(nkeys: usize, aggs: &[AggFunc], groups: &[Vec<u64>]) -> AggTable {
        let mut t = AggTable::new(nkeys, aggs);
        for g in groups {
            let addr = if nkeys == 0 {
                t.header.group0
            } else {
                t.insert(&g[..nkeys], hash_keys(&g[..nkeys]))
            };
            for (i, &acc) in g[nkeys..].iter().enumerate() {
                unsafe { *(addr as *mut u64).add(1 + nkeys + i) = acc };
            }
        }
        t
    }

    /// The merge against a `BTreeMap` model folding the tables in order,
    /// over 1–4 tables, 0/1/3 keys, empty tables, every `AggFunc`, signed
    /// zeros, NaN and infinities (compared bit-exactly), SumI overflow
    /// split across tables, and 1–4 merge partitions.
    #[test]
    fn merge_matches_btreemap_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        const ALL: [AggFunc; 7] = [
            AggFunc::SumI,
            AggFunc::SumF,
            AggFunc::CountStar,
            AggFunc::MinI,
            AggFunc::MaxI,
            AggFunc::MinF,
            AggFunc::MaxF,
        ];
        let floats = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25];
        let ints = [0i64, 1, -1, 7, i64::MAX, i64::MIN, i64::MAX / 2 + 1];
        let mut overflowed = 0;
        for seed in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nkeys = [0, 1, 3][rng.random_range(0..3usize)];
            let aggs: Vec<AggFunc> = (0..rng.random_range(1..5usize))
                .map(|_| ALL[rng.random_range(0..ALL.len())].clone())
                .collect();
            let domain = rng.random_range(1..60u64);
            let acc = |f: &AggFunc, rng: &mut SmallRng| match f {
                AggFunc::SumF | AggFunc::MinF | AggFunc::MaxF => {
                    floats[rng.random_range(0..floats.len())].to_bits()
                }
                _ if rng.random_bool(0.05) => ints[rng.random_range(0..ints.len())] as u64,
                _ => rng.random_range(-1000..1000i64) as u64,
            };
            let tables: Vec<Vec<Vec<u64>>> = (0..rng.random_range(1..5usize))
                .map(|_| {
                    let mut keys: BTreeMap<Vec<u64>, ()> = BTreeMap::new();
                    let n = if nkeys == 0 {
                        1
                    } else if rng.random_bool(0.2) {
                        0
                    } else {
                        rng.random_range(0..200)
                    };
                    for _ in 0..n {
                        keys.insert((0..nkeys).map(|_| rng.random_range(0..domain)).collect(), ());
                    }
                    keys.into_keys()
                        .map(|mut g| {
                            g.extend(aggs.iter().map(|f| acc(f, &mut rng)));
                            g
                        })
                        .collect()
                })
                .collect();

            // The model: first occurrence verbatim, later ones folded in
            // table order.
            let mut model: BTreeMap<Vec<u64>, Vec<u64>> = BTreeMap::new();
            let mut model_err = None;
            for g in tables.iter().flatten() {
                let (k, a) = g.split_at(nkeys);
                match model.get_mut(k) {
                    None => {
                        model.insert(k.to_vec(), a.to_vec());
                    }
                    Some(m) => {
                        for (i, f) in aggs.iter().enumerate() {
                            match merge_acc(f, m[i], a[i]) {
                                Ok(v) => m[i] = v,
                                Err(e) => model_err = Some(e),
                            }
                        }
                    }
                }
            }
            let want: Vec<Vec<u64>> = model
                .into_iter()
                .map(|(mut k, a)| {
                    k.extend(a);
                    k
                })
                .collect();

            for parts in 1..=4 {
                let built: Vec<AggTable> =
                    tables.iter().map(|g| table_of(nkeys, &aggs, g)).collect();
                let got = merge_agg_tables(built, &aggs, parts);
                match (&model_err, got) {
                    (Some(e), Err(g)) => assert_eq!(&g, e, "seed {seed}"),
                    (None, Ok(rows)) => {
                        let width = nkeys + aggs.len();
                        let mut got: Vec<Vec<u64>> =
                            rows.chunks_exact(width).map(|r| r.to_vec()).collect();
                        got.sort();
                        assert_eq!(got, want, "seed {seed}, {parts} partitions");
                    }
                    (e, g) => panic!("seed {seed}: model {e:?}, merge {g:?}"),
                }
            }
            overflowed += model_err.is_some() as usize;
        }
        assert!(overflowed > 0, "no seed split a SumI overflow across tables");
    }

    #[test]
    fn sort_rows_multi_key() {
        // (a, b): sort a asc, b desc
        let mut rows = vec![2u64, 10, 1, 20, 2, 30, 1, 5];
        sort_rows(
            &mut rows,
            2,
            &[
                SortKey { field: 0, asc: true, float: false },
                SortKey { field: 1, asc: false, float: false },
            ],
            None,
        );
        assert_eq!(rows, vec![1, 20, 1, 5, 2, 30, 2, 10]);
    }

    #[test]
    fn sort_rows_float_desc_with_limit() {
        let mut rows: Vec<u64> = [3.5f64, 1.5, 9.0, -2.0].iter().map(|f| f.to_bits()).collect();
        sort_rows(&mut rows, 1, &[SortKey { field: 0, asc: false, float: true }], Some(2));
        let vals: Vec<f64> = rows.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(vals, vec![9.0, 3.5]);
    }

    #[test]
    fn worker_rt_layout() {
        let mut w = WorkerRt::new(2, &[(1, vec![AggFunc::SumI])], 1);
        let ptr = w.wctx_ptr() as *const u64;
        unsafe {
            assert_eq!(*ptr.add(WCTX_RT), &*w as *const WorkerRt as u64);
            assert_eq!(*ptr.add(WCTX_ROWBUF), w.row_buf.as_ptr() as u64);
            assert_ne!(*ptr.add(WCTX_AGG_BASE), 0);
        }
    }

    #[test]
    fn rt_calls_append_rows() {
        let mut w = WorkerRt::new(1, &[], 0);
        w.row_buf[0] = 11;
        w.row_buf[1] = 22;
        let args = [w.wctx_ptr(), 0, 2];
        unsafe { rt_join_append(args.as_ptr(), std::ptr::null_mut()) };
        assert_eq!(w.join_bufs[0], vec![0, 11, 22], "an entry with an empty next slot");

        w.row_buf[0] = 77;
        let args = [w.wctx_ptr(), 1];
        unsafe { rt_emit(args.as_ptr(), std::ptr::null_mut()) };
        assert_eq!(w.out_buf, vec![77]);
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        assert_eq!(hash_keys(&[1, 2]), hash_keys(&[1, 2]));
        assert_ne!(hash_keys(&[1, 2]), hash_keys(&[2, 1]));
        // a crude spread check over sequential keys
        let mut buckets = [0u32; 16];
        for k in 0..16000u64 {
            buckets[(hash_keys(&[k]) & 15) as usize] += 1;
        }
        for b in buckets {
            assert!((500..=1500).contains(&b), "skewed bucket: {b}");
        }
    }
}
