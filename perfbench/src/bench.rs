//! One run of one workload: set-up, the timed phases, the checks, and
//! (with `--trace 1`) the outside-in layer trace.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use quepa_aindex::{AugmentedKey, ShardIndexStats};
use quepa_check::{ModelIndex, SplitMix};
use quepa_core::{AugmentedAnswer, IndexOp, Quepa, QuepaConfig, RecoveryOptions, SyncPolicy};
use quepa_pdm::{CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey};
use quepa_polystore::{Deployment, Polystore, StatsSnapshot};
use quepa_serve::{AdmissionConfig, Client, Response, Server, Status};
use quepa_workload::{BuiltPolystore, MusicData, WorkloadConfig};

use crate::check::{self, Check};
use crate::plan::{self, Search, Size, Workload, LANGUAGES};
use crate::stats::{block_quantile, block_rate, median};
use crate::sys;

/// Client connections of wire-zipf and threads of read-write: no more
/// than the two cores the benchmark is sized for.
const LOAD_THREADS: usize = 2;

/// `search_per_s` is the median of the search rates of this many
/// contiguous blocks of the sequence (≈300 searches, ≈1 s each), so a
/// stall of the host in one block leaves it alone.
const RATE_BLOCKS: usize = 10;

/// `search_p99_ms` (a per-layer figure of the traced run's untraced pass,
/// and a reference figure of the untraced run) is the median of the p99s of this many contiguous blocks of the
/// sequence; `Size::min_searches` leaves each block at least ten searches
/// beyond its p99.
const P99_BLOCKS: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Sizes the operation sequences (the work is fixed per value).
    pub seconds: u64,
    /// Run the layer trace instead of the end-to-end measurement.
    pub trace: bool,
    /// Full or smoke.
    pub size: Size,
    /// Where durable directories go (inside the checkout).
    pub data_dir: PathBuf,
}

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Attempted and failed operations of one type.
#[derive(Debug, Clone, Default)]
pub struct OpCount {
    /// Operation type.
    pub name: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a non-OK status.
    pub failed: u64,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Check failures (empty = correct).
    pub failures: Vec<String>,
    /// Per operation type accounting.
    pub ops: Vec<OpCount>,
    /// End-to-end or per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Figures printed for reference only, outside the JSON line.
    pub references: Vec<Metric>,
    /// Host CPU-steal ticks over the timed phases.
    pub steal_ticks: u64,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn reference(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.references.push(Metric { name, value, unit });
    }

    fn check(&mut self, result: Check) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    fn count(&mut self, name: &'static str, attempted: usize, failed: usize) {
        self.ops.push(OpCount { name, attempted: attempted as u64, failed: failed as u64 });
    }
}

// ---------------------------------------------------------------------
// Set-up

/// A ready instance: the `Quepa`, its server on wire-zipf's reads, its
/// durable directory if it has one, and the generated data the
/// reference model is fed from.
struct Instance {
    quepa: Arc<Quepa>,
    server: Option<Server>,
    dir: Option<PathBuf>,
    data: MusicData,
}

impl Instance {
    fn shutdown(mut self) -> Option<PathBuf> {
        if let Some(server) = self.server.as_mut() {
            server.shutdown();
        }
        self.dir
    }

    /// Shuts down and removes the durable directory, if any.
    fn discard(self) {
        if let Some(dir) = self.shutdown() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// How long each step of one set-up took.
struct SetupTimes {
    build_s: f64,
    /// `Quepa::with_config` (volatile) or `Quepa::create_durable`.
    attach_s: f64,
    /// Build, attach and the server bind.
    total_s: f64,
}

/// Every workload runs with the latency model off and fetches inline
/// (`threads_size: 1`), the cache and single-flight left at their
/// defaults. On two cores the pooled fan-out and the link's sleeps only
/// add hand-offs between threads, and co-tenant CPU steal delays every
/// hand-off (see the README's wire-zipf section).
fn config() -> QuepaConfig {
    QuepaConfig { threads_size: 1, ..QuepaConfig::default() }
}

fn fresh_dir(args: &RunArgs, label: &str) -> PathBuf {
    let dir =
        args.data_dir.join(format!("{}-{}-{label}", args.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds the polystore and A' index, then attaches them: durably over
/// `dir` when given (`create_durable`, dominated by the initial cut),
/// otherwise as a volatile `Quepa`. `serve` binds a server over it.
fn set_up(
    args: &RunArgs,
    dir: Option<PathBuf>,
    serve: bool,
) -> Result<(Instance, SetupTimes), String> {
    let start = Instant::now();
    let BuiltPolystore { polystore, index, data, .. } = BuiltPolystore::build(WorkloadConfig {
        albums: args.size.albums,
        replica_sets: args.size.replica_sets,
        deployment: Deployment::InProcess,
        seed: args.seed,
    });
    let build_s = start.elapsed().as_secs_f64();
    let attach = Instant::now();
    let config = config();
    let quepa = match &dir {
        Some(dir) => Quepa::create_durable(polystore, index, config, dir, SyncPolicy::Buffered)
            .map_err(|e| format!("create_durable: {e}"))?,
        None => Quepa::with_config(polystore, index, config),
    };
    let attach_s = attach.elapsed().as_secs_f64();
    let quepa = Arc::new(quepa);
    let server = if serve {
        Some(
            Server::start(Arc::clone(&quepa), "127.0.0.1:0", AdmissionConfig::default())
                .map_err(|e| format!("server bind: {e}"))?,
        )
    } else {
        None
    };
    let total_s = start.elapsed().as_secs_f64();
    Ok((Instance { quepa, server, dir, data }, SetupTimes { build_s, attach_s, total_s }))
}

/// The instance the reads run on: durable on read-write, where the
/// writer shares it; volatile on the other two, with the server bound on
/// wire-zipf.
fn read_instance(args: &RunArgs, label: &str) -> Result<(Instance, SetupTimes), String> {
    let dir = (args.workload == Workload::ReadWrite).then(|| fresh_dir(args, label));
    set_up(args, dir, args.workload == Workload::WireZipf)
}

/// Sets up the read instance `args.size.setups` times and keeps the
/// last; returns the median set-up time.
fn setup(args: &RunArgs) -> Result<(Instance, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<Instance> = None;
    for attempt in 0..args.size.setups.max(1) {
        if let Some(old) = kept.take() {
            old.discard();
        }
        let (instance, t) = read_instance(args, &format!("setup{attempt}"))?;
        times.push(t.total_s);
        kept = Some(instance);
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

// ---------------------------------------------------------------------
// The timed phases

/// What a read phase returned, index-aligned with its sequence.
#[derive(Default)]
struct Reads {
    latency_ms: Vec<f64>,
    /// Whether each search succeeded.
    ok: Vec<bool>,
    /// Each answer's original (in-process phases; empty otherwise).
    originals: Vec<Vec<DataObject>>,
    /// Whole answers of the sampled positions.
    kept: BTreeMap<usize, AugmentedAnswer>,
    /// Wire responses of the sampled positions.
    responses: BTreeMap<usize, Response>,
    errors: Vec<String>,
    /// When each search completed, in seconds from the phase's start.
    done_s: Vec<f64>,
    /// Layer samples (traced phases only).
    layers: Layers,
}

impl Reads {
    fn merge(parts: Vec<(Vec<usize>, Reads)>, n: usize) -> Reads {
        let mut out = Reads {
            latency_ms: vec![0.0; n],
            ok: vec![false; n],
            done_s: vec![0.0; n],
            ..Reads::default()
        };
        for (positions, part) in parts {
            for (slot, &i) in positions.iter().enumerate() {
                out.latency_ms[i] = part.latency_ms[slot];
                out.ok[i] = part.ok[slot];
                out.done_s[i] = part.done_s[slot];
            }
            out.kept.extend(part.kept.into_iter().map(|(slot, a)| (positions[slot], a)));
            out.responses.extend(part.responses.into_iter().map(|(slot, r)| (positions[slot], r)));
            out.errors.extend(part.errors);
            out.layers.merge(part.layers);
        }
        out
    }
}

fn search_inproc(quepa: &Quepa, s: &Search) -> quepa_core::Result<AugmentedAnswer> {
    match &s.filter {
        Some(filter) => quepa.augmented_search_filtered(s.database, &s.query, s.level, filter),
        None => quepa.augmented_search(s.database, &s.query, s.level),
    }
}

/// A closed loop of in-process searches. `keep` lists the positions
/// whose whole answer is kept for the checks.
fn reads_inproc(
    quepa: &Quepa,
    seq: &[Search],
    keep: &BTreeSet<usize>,
    probe: bool,
    progress: Option<&Progress>,
) -> Reads {
    let mut out = Reads::default();
    let start = Instant::now();
    for (i, s) in seq.iter().enumerate() {
        let t = Instant::now();
        let result = search_inproc(quepa, s);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.latency_ms.push(ms);
        out.done_s.push(start.elapsed().as_secs_f64());
        out.ok.push(result.is_ok());
        match result {
            Ok(answer) => {
                if probe {
                    let keys: Vec<GlobalKey> =
                        answer.original.iter().map(|o| o.key().clone()).collect();
                    out.layers.probe(quepa, s, &keys, ms, i);
                }
                if keep.contains(&i) {
                    out.originals.push(answer.original.clone());
                    out.kept.insert(i, answer);
                } else {
                    out.originals.push(answer.original);
                }
            }
            Err(e) => {
                out.errors.push(format!("{}: {e}", s.query));
                out.originals.push(Vec::new());
            }
        }
        if let Some(p) = progress {
            p.advance();
        }
    }
    out
}

/// `LOAD_THREADS` connections, each a closed loop over its share of the
/// sequence (position `i` goes to connection `i % LOAD_THREADS`).
fn reads_wire(instance: &Instance, seq: &[Search], keep: &BTreeSet<usize>, probe: bool) -> Reads {
    let addr = instance.server.as_ref().expect("wire workloads run a server").local_addr();
    let start = Instant::now();
    let parts: Vec<(Vec<usize>, Reads)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|c| {
                let quepa = &instance.quepa;
                scope.spawn(move || {
                    let positions: Vec<usize> = (c..seq.len()).step_by(LOAD_THREADS).collect();
                    let mut out = Reads::default();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            out.errors.push(format!("connect: {e}"));
                            out.latency_ms = vec![0.0; positions.len()];
                            out.ok = vec![false; positions.len()];
                            return (positions, out);
                        }
                    };
                    for (slot, &i) in positions.iter().enumerate() {
                        let s = &seq[i];
                        let t = Instant::now();
                        let result = client.augment(s.database, s.level, &s.query);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        out.latency_ms.push(ms);
                        out.done_s.push(start.elapsed().as_secs_f64());
                        out.ok.push(matches!(&result, Ok(r) if r.status == Status::Ok));
                        match result {
                            Ok(response) if response.status == Status::Ok => {
                                if probe {
                                    // The wire answer carries no original: re-run the
                                    // native query for the probe's seed keys.
                                    let keys: Vec<GlobalKey> = quepa
                                        .polystore()
                                        .execute(s.database, &s.query)
                                        .map(|o| o.iter().map(|o| o.key().clone()).collect())
                                        .unwrap_or_default();
                                    out.layers.probe(quepa, s, &keys, ms, i);
                                }
                                if keep.contains(&i) {
                                    out.responses.insert(slot, response);
                                }
                            }
                            Ok(response) => {
                                out.errors
                                    .push(format!("{}: status {:?}", s.query, response.status));
                                out.responses.insert(slot, response);
                            }
                            Err(e) => out.errors.push(format!("{}: {e}", s.query)),
                        }
                    }
                    (positions, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("wire client thread panicked")).collect()
    });
    Reads::merge(parts, seq.len())
}

/// What a write phase returned.
#[derive(Default)]
struct Writes {
    commit_ms: Vec<f64>,
    ops: usize,
    failed: usize,
    errors: Vec<String>,
    busy_s: f64,
    wchar: u64,
    /// Per commit (traced phases only): did it write a checkpoint cut,
    /// how long it took, and how many bytes the process handed to
    /// `write()` meanwhile.
    observed: Vec<(bool, f64, u64)>,
}

/// How far the reader has got, so the writer can spread its batches
/// over the reader's sequence by progress rather than by time.
#[derive(Default)]
struct Progress {
    done: Mutex<usize>,
    moved: Condvar,
}

impl Progress {
    fn advance(&self) {
        *self.done.lock().expect("progress lock") += 1;
        self.moved.notify_all();
    }

    fn wait_for(&self, target: usize) {
        let mut done = self.done.lock().expect("progress lock");
        while *done < target {
            done = self.moved.wait(done).expect("progress lock");
        }
    }
}

/// Paces the writer by a concurrent reader's progress: batch `j` waits
/// until the reader has done `j / batches` of its searches.
struct Pacing<'a> {
    reader: &'a Progress,
    reads: usize,
}

/// Commits `batches` in order. The cut the aimed shard's compaction
/// triggers is written inside the commit that compacts it. `busy_s` sums
/// the time spent inside `apply_mutations`, the writer's own work.
fn write_batches(
    quepa: &Quepa,
    batches: &[Vec<IndexOp>],
    pacing: Option<Pacing>,
    observe: bool,
) -> Writes {
    let mut out = Writes::default();
    let wchar0 = sys::wchar();
    for (j, batch) in batches.iter().enumerate() {
        if let Some(p) = &pacing {
            p.reader.wait_for(j * p.reads / batches.len());
        }
        let before = observe.then(|| (cuts(quepa), sys::wchar()));
        let t = Instant::now();
        let result = quepa.apply_mutations(batch);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.commit_ms.push(ms);
        out.busy_s += ms / 1e3;
        if let Some((cuts0, bytes0)) = before {
            out.observed.push((cuts(quepa) > cuts0, ms, sys::wchar() - bytes0));
        }
        match result {
            Ok(_) => out.ops += batch.len(),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("apply_mutations: {e}"));
            }
        }
    }
    out.wchar = sys::wchar() - wchar0;
    out
}

fn cuts(quepa: &Quepa) -> u64 {
    quepa.durability_status().map_or(0, |s| s.cuts_written)
}

/// The program-side counters a phase moved.
struct Counters {
    stats: StatsSnapshot,
    cache: (u64, u64),
}

impl Counters {
    fn read(quepa: &Quepa) -> Counters {
        Counters { stats: quepa.polystore().stats(), cache: quepa.cache().stats() }
    }
}

/// The main phase: the reads, plus on read-write the concurrent writer.
struct Pass {
    reads: Reads,
    /// The concurrent writer on read-write; empty on the other two.
    writes: Writes,
    /// CPU milliseconds of the main phase.
    cpu_ms: f64,
    steal: u64,
    before: Counters,
    after: Counters,
    /// `VmHWM` at the end of the main phase.
    peak_rss_mb: f64,
    /// In-process reference answers for the kept positions, taken after
    /// the reads and before any write that could change them: the
    /// unfiltered answer of a filtered search, the in-process answer of a
    /// wire search.
    refs: BTreeMap<usize, AugmentedAnswer>,
}

fn pass(args: &RunArgs, instance: &Instance, seqs: &Seqs, traced: bool) -> Pass {
    let quepa = &instance.quepa;
    let probe = traced;
    let before = Counters::read(quepa);
    let steal0 = sys::steal_ticks();
    let cpu0 = sys::cpu_ms();
    let progress = Progress::default();
    let (reads, writes) = match args.workload {
        Workload::ColdMix => {
            (reads_inproc(quepa, &seqs.reads, &seqs.keep, probe, None), Writes::default())
        }
        Workload::WireZipf => {
            (reads_wire(instance, &seqs.reads, &seqs.keep, probe), Writes::default())
        }
        Workload::ReadWrite => std::thread::scope(|scope| {
            let reader = scope
                .spawn(|| reads_inproc(quepa, &seqs.reads, &seqs.keep, probe, Some(&progress)));
            let pacing = Pacing { reader: &progress, reads: seqs.reads.len() };
            let writer = scope.spawn(|| write_batches(quepa, &seqs.batches, Some(pacing), traced));
            (
                reader.join().expect("reader thread panicked"),
                writer.join().expect("writer thread panicked"),
            )
        }),
    };
    let cpu_ms = sys::cpu_ms() - cpu0;
    let steal = sys::steal_ticks() - steal0;
    let after = Counters::read(quepa);
    let peak_rss_mb = sys::peak_rss_mb();
    let refs = seqs
        .keep
        .iter()
        .map(|&i| (i, &seqs.reads[i]))
        .filter(|(_, s)| s.filter.is_some() || args.workload == Workload::WireZipf)
        .filter_map(|(i, s)| {
            quepa.augmented_search(s.database, &s.query, s.level).ok().map(|a| (i, a))
        })
        .collect();
    Pass { reads, writes, cpu_ms, steal, before, after, peak_rss_mb, refs }
}

/// The writer's instance after the main phase, its writes, and the
/// set-up of a separate durable instance where it needed one.
struct WriteLeg {
    instance: Instance,
    writes: Writes,
    steal: u64,
    setup: Option<SetupTimes>,
}

/// On read-write the writer already ran against the reader on the read
/// instance. On the other two, whose reads run volatile, the read
/// instance is shut down and the writer runs alone on a durable instance
/// of the same polystore, built for it.
fn write_leg(
    args: &RunArgs,
    read: Instance,
    pass: &mut Pass,
    seqs: &Seqs,
    traced: bool,
) -> Result<WriteLeg, String> {
    if args.workload == Workload::ReadWrite {
        let writes = std::mem::take(&mut pass.writes);
        return Ok(WriteLeg { instance: read, writes, steal: 0, setup: None });
    }
    read.discard();
    let (instance, times) = set_up(args, Some(fresh_dir(args, "writer")), false)?;
    let steal0 = sys::steal_ticks();
    let writes = write_batches(&instance.quepa, &seqs.batches, None, traced);
    let steal = sys::steal_ticks() - steal0;
    Ok(WriteLeg { instance, writes, steal, setup: Some(times) })
}

// ---------------------------------------------------------------------
// Layer probes (trace only): each calls one layer's public function from
// outside the program, on the inputs the search just used.

#[derive(Default)]
struct Layers {
    /// Native query time per store, keyed by database.
    local_ms: BTreeMap<&'static str, Vec<f64>>,
    plan_ms: Vec<f64>,
    plan_keys: Vec<f64>,
    fetch_ms: Vec<f64>,
    /// Search minus (local + plan + fetch), unfiltered searches only.
    unattributed_ms: Vec<f64>,
}

impl Layers {
    fn merge(&mut self, other: Layers) {
        for (db, v) in other.local_ms {
            self.local_ms.entry(db).or_default().extend(v);
        }
        self.plan_ms.extend(other.plan_ms);
        self.plan_keys.extend(other.plan_keys);
        self.fetch_ms.extend(other.fetch_ms);
        self.unattributed_ms.extend(other.unattributed_ms);
    }

    /// Times each layer on the inputs search `i` (`s`, which took
    /// `search_ms`) just used; `keys` are its local answer's keys.
    fn probe(&mut self, quepa: &Quepa, s: &Search, keys: &[GlobalKey], search_ms: f64, i: usize) {
        let window = keys.len().max(1);
        // The search's own native query, and on every fourth search the
        // same window in the other three languages.
        let mut own_local = 0.0;
        for db in LANGUAGES {
            if db != s.database && !i.is_multiple_of(4) {
                continue;
            }
            let query = if db == s.database {
                s.query.clone()
            } else {
                plan::window_query(db, s.lo, window)
            };
            let t = Instant::now();
            let _ = std::hint::black_box(quepa.polystore().execute(db, &query));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if db == s.database {
                own_local = ms;
            }
            self.local_ms.entry(db).or_default().push(ms);
        }
        let t = Instant::now();
        let (plan, _owners) = quepa.index().augment_multi(keys, s.level);
        let plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let fetch_ms = fetch(quepa.polystore(), &plan, quepa.config().batch_size);
        self.plan_ms.push(plan_ms);
        self.plan_keys.push(plan.len() as f64);
        self.fetch_ms.push(fetch_ms);
        if s.filter.is_none() {
            self.unattributed_ms.push(search_ms - own_local - plan_ms - fetch_ms);
        }
    }
}

/// Fetches the plan's keys with `Polystore::multi_get`, one call per
/// `batch`-sized chunk of each (database, collection) group, and returns
/// the stores' time.
fn fetch(polystore: &Polystore, plan: &[AugmentedKey], batch: usize) -> f64 {
    let mut groups: BTreeMap<(&DatabaseName, &CollectionName), Vec<LocalKey>> = BTreeMap::new();
    for k in plan {
        groups.entry((k.key.database(), k.key.collection())).or_default().push(k.key.key().clone());
    }
    let mut total = 0.0;
    for ((db, coll), keys) in &groups {
        for chunk in keys.chunks(batch.max(1)) {
            let t = Instant::now();
            let _ = std::hint::black_box(polystore.multi_get(db, coll, chunk));
            total += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    total
}

// ---------------------------------------------------------------------
// Sequences and checks

struct Seqs {
    reads: Vec<Search>,
    batches: Vec<Vec<IndexOp>>,
    /// Positions whose whole answer is kept for the model and filter
    /// checks.
    keep: BTreeSet<usize>,
}

/// The run's sequences. The writer aims by the shard sizes of the
/// freshly built index, which depend on the seed alone.
fn seqs(args: &RunArgs, quepa: &Quepa) -> Seqs {
    let size = &args.size;
    let reads = match args.workload {
        Workload::ColdMix => plan::cold_mix(size, args.seed, args.seconds),
        Workload::WireZipf => plan::wire_zipf(size, args.seed, args.seconds),
        Workload::ReadWrite => plan::rw_reads(size, args.seed, args.seconds),
    };
    let entries: Vec<usize> = quepa.index_shard_stats().iter().map(|s| s.entries).collect();
    let batches = plan::batches(size, args.seed, args.seconds, &entries);
    let mut rng = SplitMix::new(args.seed).fork("sample");
    let mut keep = BTreeSet::new();
    if args.workload == Workload::ReadWrite {
        // The reader races the writer: its answers belong to whichever
        // prefix of the writes it saw, so only the originals are checked
        // during the run and the index after it.
        return Seqs { reads, batches, keep };
    }
    let filtered: Vec<usize> = (0..reads.len()).filter(|&i| reads[i].filter.is_some()).collect();
    let plain: Vec<usize> = (0..reads.len()).filter(|&i| reads[i].filter.is_none()).collect();
    for _ in 0..size.sample {
        keep.insert(*rng.pick(&plain));
    }
    for _ in 0..size.sample.div_ceil(2).min(filtered.len()) {
        keep.insert(*rng.pick(&filtered));
    }
    Seqs { reads, batches, keep }
}

/// The keys an op touches.
pub fn endpoints(op: &IndexOp) -> Vec<GlobalKey> {
    match op {
        IndexOp::InsertMatching { a, b, .. } | IndexOp::InsertIdentity { a, b, .. } => {
            vec![a.clone(), b.clone()]
        }
        IndexOp::RemoveObject { key } => vec![key.clone()],
        _ => Vec::new(),
    }
}

/// Reads a counter from a Prometheus text export (0 when absent).
pub fn prometheus_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0)
}

/// The admission ledger's `(served, degraded, shed)` over the wire.
fn ledger(instance: &Instance) -> Result<(u64, u64, u64), String> {
    let addr = instance.server.as_ref().expect("wire workloads run a server").local_addr();
    let mut client = Client::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    let text = client.metrics(false).map_err(|e| format!("METRICS: {e}"))?.payload;
    Ok((
        prometheus_counter(&text, "quepa_admission_served_total"),
        prometheus_counter(&text, "quepa_admission_degraded_total"),
        prometheus_counter(&text, "quepa_admission_shed_total"),
    ))
}

/// The checks of the main phase, on the live read instance: originals
/// against a direct execute, answers against the reference model or the
/// unfiltered answer, wire responses against in-process answers, and
/// the admission ledger. Returns the reference model, fed the workload's
/// p-relations, for the write checks.
fn check_reads(
    args: &RunArgs,
    instance: &Instance,
    seqs: &Seqs,
    pass: &Pass,
    out: &mut Outcome,
) -> ModelIndex {
    let quepa = &instance.quepa;
    // Originals: each answer against a direct execute (the stores do not
    // change during a run; writes touch only the A' index).
    if args.workload != Workload::WireZipf {
        for (i, s) in seqs.reads.iter().enumerate() {
            if !pass.reads.ok[i] {
                continue;
            }
            match quepa.polystore().execute(s.database, &s.query) {
                Ok(direct) => {
                    out.check(check::originals_match(&s.query, &pass.reads.originals[i], &direct))
                }
                Err(e) => out.failures.push(format!("direct execute of {}: {e}", s.query)),
            }
        }
    }
    let mut model = ModelIndex::new();
    plan::feed_model(&mut model, &instance.data, args.size.replica_sets);
    match args.workload {
        Workload::ColdMix => {
            for (&i, answer) in &pass.reads.kept {
                let s = &seqs.reads[i];
                let seeds: Vec<GlobalKey> =
                    answer.original.iter().map(|o| o.key().clone()).collect();
                match &s.filter {
                    None => out.check(check::answer_matches_model(
                        &s.query,
                        &answer.normal_form(),
                        &model,
                        &seeds,
                        s.level,
                    )),
                    Some(filter) => match pass.refs.get(&i) {
                        Some(unfiltered) => {
                            out.check(check::filtered_matches(&s.query, answer, unfiltered, filter))
                        }
                        None => out.failures.push(format!("unfiltered {} failed", s.query)),
                    },
                }
            }
        }
        Workload::WireZipf => {
            for (&i, response) in &pass.reads.responses {
                let s = &seqs.reads[i];
                match pass.refs.get(&i) {
                    Some(inproc) => {
                        out.check(check::wire_response_matches(&s.query, response, inproc))
                    }
                    None => out.failures.push(format!("in-process {} failed", s.query)),
                }
            }
            match ledger(instance) {
                Ok((served, _, shed)) => {
                    out.check(check::ledger_balances(seqs.reads.len() as u64, served, shed))
                }
                Err(e) => out.failures.push(e),
            }
        }
        Workload::ReadWrite => {}
    }
    model
}

/// The checks of the writes: the index after them against `model` with
/// the same ops applied, then the restart: recover from the run's
/// directory (`recovers` times, timed) and compare. Returns the median
/// recovery time.
fn check_writes(
    args: &RunArgs,
    writer: Instance,
    seqs: &Seqs,
    mut model: ModelIndex,
    out: &mut Outcome,
    recovers: usize,
) -> f64 {
    let ops: Vec<IndexOp> = seqs.batches.iter().flatten().cloned().collect();
    for op in &ops {
        plan::apply_to_model(&mut model, op);
    }
    let mut rng = SplitMix::new(args.seed).fork("index-sample");
    let mut seeds: Vec<(GlobalKey, usize)> = Vec::new();
    for k in 0..args.size.sample {
        for key in endpoints(rng.pick(&ops)) {
            seeds.push((key, k % 2));
        }
    }
    let live = writer.quepa.index();
    out.check(check::index_matches_model("live", &live, &model, &seeds));
    out.check(check::writes_survive("live", &live, &ops));
    drop(model);
    let Some(dir) = writer.shutdown() else {
        out.failures.push("the writer's instance is not durable".into());
        return 0.0;
    };
    // Restart: recover from the directory alone.
    let mut times = Vec::new();
    for r in 0..recovers.max(1) {
        let start = Instant::now();
        let recovered = Quepa::recover_durable(
            Polystore::new(),
            config(),
            &dir,
            SyncPolicy::Buffered,
            &RecoveryOptions::default(),
        );
        times.push(start.elapsed().as_secs_f64());
        match recovered {
            Ok((recovered, _)) if r + 1 == recovers.max(1) => {
                let view = recovered.index();
                out.check(check::writes_survive("recovered", &view, &ops));
                out.check(check::indexes_agree(&live, &view, &seeds));
            }
            Ok(_) => {}
            Err(e) => {
                out.failures.push(format!("recover_durable: {e}"));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    median(&times)
}

fn account(out: &mut Outcome, args: &RunArgs, seqs: &Seqs, reads: &Reads, writes: &Writes) {
    let filtered = seqs.reads.iter().filter(|s| s.filter.is_some()).count();
    let failed = |filtered: bool| {
        reads
            .ok
            .iter()
            .zip(&seqs.reads)
            .filter(|(ok, s)| s.filter.is_some() == filtered && !**ok)
            .count()
    };
    let name = if args.workload == Workload::WireZipf { "wire-search" } else { "search" };
    out.count(name, seqs.reads.len() - filtered, failed(false));
    if filtered > 0 {
        out.count("filtered-search", filtered, failed(true));
    }
    out.count("commit", seqs.batches.len(), writes.failed);
    for e in reads.errors.iter().chain(&writes.errors).take(5) {
        eprintln!("operation failed: {e}");
    }
}

// ---------------------------------------------------------------------
// The run

/// Runs one workload and returns what to report.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.data_dir)
        .map_err(|e| format!("{}: {e}", args.data_dir.display()))?;
    let mut out = Outcome::default();
    if args.trace {
        trace(args, &mut out)?;
    } else {
        let (instance, setup_s) = setup(args)?;
        let seqs = seqs(args, &instance.quepa);
        let mut pass = pass(args, &instance, &seqs, false);
        let model = check_reads(args, &instance, &seqs, &pass, &mut out);
        let leg = write_leg(args, instance, &mut pass, &seqs, false)?;
        account(&mut out, args, &seqs, &pass.reads, &leg.writes);
        out.steal_ticks = pass.steal + leg.steal;
        let recover_s =
            check_writes(args, leg.instance, &seqs, model, &mut out, args.size.recovers);
        let lat = &pass.reads.latency_ms;
        let main_ops = seqs.reads.len()
            + if args.workload == Workload::ReadWrite { seqs.batches.len() } else { 0 };
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", pass.peak_rss_mb, "MB");
        out.metric("search_per_s", block_rate(&pass.reads.done_s, RATE_BLOCKS), "1/s");
        out.metric("search_p50_ms", median(lat), "ms");
        out.metric("cpu_ms_per_op", pass.cpu_ms / main_ops as f64, "ms");
        out.metric("mutate_per_s", leg.writes.ops as f64 / leg.writes.busy_s, "1/s");
        out.metric("commit_p50_ms", median(&leg.writes.commit_ms), "ms");
        out.metric("write_mb", leg.writes.wchar as f64 / (1024.0 * 1024.0), "MB");
        out.metric("recover_s", recover_s, "s");
        out.reference("search_p99_ms", block_quantile(lat, 0.99, P99_BLOCKS), "ms");
    }
    let _ = std::fs::remove_dir(&args.data_dir);
    Ok(out)
}

/// The traced run: an untraced pass on one instance (the reference for
/// the tracing overhead and the source of the program's own counters),
/// then fresh instances set up layer by layer and a traced pass that
/// probes every layer after each operation, an in-process serial replay
/// and cold-cache pairs, and the traced writer.
fn trace(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    // Pass A: untraced.
    let (instance, _) = setup(&RunArgs { size: Size { setups: 1, ..args.size }, ..args.clone() })?;
    let seqs = seqs(args, &instance.quepa);
    let mut a = pass(args, &instance, &seqs, false);
    let searches = seqs.reads.len() as f64;
    let d = delta(&a.before.stats, &a.after.stats);
    let (hits, misses) = (a.after.cache.0 - a.before.cache.0, a.after.cache.1 - a.before.cache.1);
    out.metric("polystore.round_trips", d.round_trips as f64 / searches, "count");
    out.metric("polystore.objects", d.objects_returned as f64 / searches, "count");
    out.metric("polystore.kib", d.bytes_returned as f64 / 1024.0 / searches, "KiB");
    // The runs keep the link model off; this is what the §VII-A
    // distributed link would charge for the same round trips.
    let link = Deployment::Distributed.latency();
    let link_ms = match d.round_trips {
        0 => 0.0,
        trips => {
            let first = link.cost(d.objects_returned as usize, d.bytes_returned as usize);
            (first + link.cost(0, 0) * (trips - 1) as u32).as_secs_f64() * 1e3
        }
    };
    out.metric("polystore.link_ms", link_ms / searches, "ms");
    out.metric("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    let resident: usize = instance.quepa.index_shard_stats().iter().map(|s| s.resident_bytes).sum();
    out.metric("aindex.resident_mb", resident as f64 / (1024.0 * 1024.0), "MB");
    let (degraded, shed) = match args.workload {
        Workload::WireZipf => ledger(&instance).map(|(_, d, s)| (d, s))?,
        _ => (0, 0),
    };
    out.metric("serve.degraded", degraded as f64, "count");
    out.metric("serve.shed", shed as f64, "count");
    out.metric("search_p99_ms", block_quantile(&a.reads.latency_ms, 0.99, P99_BLOCKS), "ms");
    let untraced_p50 = median(&a.reads.latency_ms);
    out.metric("trace.untraced_search_ms", untraced_p50, "ms");
    let leg = write_leg(args, instance, &mut a, &seqs, false)?;
    out.steal_ticks += a.steal + leg.steal;
    let shards = leg.instance.quepa.index_shard_stats();
    let total = |f: fn(&ShardIndexStats) -> u64| shards.iter().map(f).sum::<u64>() as f64;
    out.metric("aindex.overlay_depth", total(|s| s.overlay_depth as u64), "count");
    out.metric("aindex.compactions", total(|s| s.compactions), "count");
    out.metric("aindex.swaps", total(|s| s.swaps), "count");
    leg.instance.discard();

    // Pass B: traced, on fresh instances set up layer by layer. The
    // volatile set-up times the publish; the durable one the create (on
    // read-write here, on the other two with the writer below).
    let (instance, volatile, durable) = if args.workload == Workload::ReadWrite {
        let (discarded, volatile) = set_up(args, None, false)?;
        discarded.discard();
        let (instance, durable) = read_instance(args, "traced")?;
        (instance, volatile, Some(durable))
    } else {
        let (instance, volatile) = read_instance(args, "traced")?;
        (instance, volatile, None)
    };
    let mut b = pass(args, &instance, &seqs, true);
    let layers = &b.reads.layers;
    for (db, name) in [
        ("transactions", "relstore.local_ms"),
        ("catalogue", "docstore.local_ms"),
        ("similar", "graphstore.local_ms"),
        ("discount", "kvstore.local_ms"),
    ] {
        out.metric(name, layers.local_ms.get(db).map_or(0.0, |v| median(v)), "ms");
    }
    out.metric("aindex.plan_ms", median(&layers.plan_ms), "ms");
    out.metric("aindex.plan_keys", median(&layers.plan_keys), "count");
    out.metric("polystore.fetch_ms", median(&layers.fetch_ms), "ms");
    out.metric("core.unattributed_ms", median(&layers.unattributed_ms), "ms");
    let traced_p50 = median(&b.reads.latency_ms);
    out.metric("trace.search_ms", traced_p50, "ms");
    out.metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");

    // Pass C: serial in-process replay of the reads, natural cache.
    let quepa = &instance.quepa;
    quepa.drop_caches();
    let c = reads_inproc(quepa, &seqs.reads, &BTreeSet::new(), false, None);
    let inproc_p50 = median(&c.latency_ms);
    out.metric("core.search_inproc_ms", inproc_p50, "ms");
    let wire_overhead = match args.workload {
        Workload::WireZipf => untraced_p50 - inproc_p50,
        _ => 0.0,
    };
    out.metric("serve.overhead_ms", wire_overhead, "ms");

    // Pass D: cold-cache pairs and the wire codec, on every eighth search.
    let base = quepa.config();
    let mut cold_overhead = Vec::new();
    let (mut encode_us, mut decode_us, mut kib) = (Vec::new(), Vec::new(), Vec::new());
    for s in seqs.reads.iter().step_by(8) {
        quepa.drop_caches();
        let t = Instant::now();
        let on = search_inproc(quepa, s);
        let on_ms = t.elapsed().as_secs_f64() * 1e3;
        quepa.set_config(QuepaConfig { cache_size: 0, ..base });
        let t = Instant::now();
        let off = search_inproc(quepa, s);
        let off_ms = t.elapsed().as_secs_f64() * 1e3;
        quepa.set_config(base);
        if let (Ok(answer), Ok(_)) = (on, off) {
            cold_overhead.push(on_ms - off_ms);
            let response =
                Response { id: 1, status: Status::Ok, payload: answer.normal_form().to_string() };
            let t = Instant::now();
            let frame = quepa_serve::encode_response(std::hint::black_box(&response));
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let decoded = quepa_serve::decode_response(std::hint::black_box(&frame[4..]));
            decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            if decoded.as_ref() != Ok(&response) {
                out.failures
                    .push(format!("wire codec does not round-trip the answer of {}", s.query));
            }
            kib.push(frame.len() as f64 / 1024.0);
        }
    }
    out.metric("cache.cold_overhead_ms", median(&cold_overhead), "ms");
    out.metric("serve.encode_us", median(&encode_us), "us");
    out.metric("serve.decode_us", median(&decode_us), "us");
    out.metric("serve.response_kib", median(&kib), "KiB");

    // Pass D left the cache and config as they were; the checks run on
    // the traced instance's answers and the traced writer's instance.
    let model = check_reads(args, &instance, &seqs, &b, out);
    let leg = write_leg(args, instance, &mut b, &seqs, true)?;
    out.steal_ticks += b.steal + leg.steal;
    account(out, args, &seqs, &b.reads, &leg.writes);
    let durable = durable.or(leg.setup).expect("the writer has a durable set-up");
    out.metric("aindex.build_s", (volatile.build_s + durable.build_s) / 2.0, "s");
    out.metric("aindex.publish_s", volatile.attach_s, "s");
    out.metric("durability.create_s", durable.attach_s, "s");
    let observed = &leg.writes.observed;
    let cut_ms: Vec<f64> = observed.iter().filter(|o| o.0).map(|o| o.1).collect();
    let nocut_ms: Vec<f64> = observed.iter().filter(|o| !o.0).map(|o| o.1).collect();
    out.metric("durability.cuts", cut_ms.len() as f64, "count");
    out.metric("durability.cut_ms", median(&cut_ms), "ms");
    out.metric("durability.commit_nocut_ms", median(&nocut_ms), "ms");
    let wal_bytes: u64 = observed.iter().filter(|o| !o.0).map(|o| o.2).sum();
    let nocut_ops = nocut_ms.len() * args.size.batch_ops;
    out.metric("wal.bytes_per_op", wal_bytes as f64 / nocut_ops.max(1) as f64, "B");
    check_writes(args, leg.instance, &seqs, model, out, 1);
    Ok(())
}

fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        queries: b.queries - a.queries,
        round_trips: b.round_trips - a.round_trips,
        objects_returned: b.objects_returned - a.objects_returned,
        bytes_returned: b.bytes_returned - a.bytes_returned,
        simulated_network: b.simulated_network.saturating_sub(a.simulated_network),
        retries: b.retries - a.retries,
        timeouts: b.timeouts - a.timeouts,
        breaker_trips: b.breaker_trips - a.breaker_trips,
    }
}

/// The durable directories of a run live under the checkout.
pub fn default_data_dir() -> PathBuf {
    Path::new(".perfbench-data").to_path_buf()
}
