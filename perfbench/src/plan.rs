//! What a run does: the size, the seeded operation sequences, and the
//! p-relations the reference model is fed.
//!
//! Every sequence is a pure function of `(size, seed, seconds)`, so two
//! runs with the same arguments attempt exactly the same operations and
//! only time varies between them.

use std::collections::BTreeSet;

use quepa_aindex::shard::route;
use quepa_check::{ModelIndex, SplitMix};
use quepa_core::IndexOp;
use quepa_pdm::{GlobalKey, Probability, PushOp, Pushdown, Value};
use quepa_workload::builder::discount_key;
use quepa_workload::{MusicData, ZipfSampler};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process, cache far smaller than the working set.
    ColdMix,
    /// Loopback TCP through `quepa-serve`, two connections, Zipf-skewed
    /// windows, so hot windows hit the cache.
    WireZipf,
    /// A reader and a writer sharing one durable instance.
    ReadWrite,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [Workload::ColdMix, Workload::WireZipf, Workload::ReadWrite];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold-mix",
            Workload::WireZipf => "wire-zipf",
            Workload::ReadWrite => "read-write",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is. `full` is the benchmark; `smoke` runs the same code
/// paths, checks included, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Album entities of the §VII-A Polyphony polystore.
    pub albums: usize,
    /// Replica sets (databases = 4 + 3 × replica sets).
    pub replica_sets: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Recoveries per run; `recover_s` is their median.
    pub recovers: usize,
    /// Rows per window query.
    pub window: usize,
    /// Searches per second of `--seconds`, per workload.
    pub cold_per_s: usize,
    /// Wire searches per second of `--seconds`.
    pub wire_per_s: usize,
    /// Reader searches per second of `--seconds` on read-write.
    pub rw_reads_per_s: usize,
    /// Writer batches per second of `--seconds` (every workload).
    pub batches_per_s: usize,
    /// Index ops per writer batch.
    pub batch_ops: usize,
    /// At least this many searches per run, so that each of the p99's
    /// blocks has ten samples beyond it.
    pub min_searches: usize,
    /// Searches (and mutation endpoints) the model check samples.
    pub sample: usize,
}

impl Size {
    /// The benchmark size: 10⁴ albums × 2 replica sets (≈188k objects).
    pub const FULL: Size = Size {
        albums: 10_000,
        replica_sets: 2,
        setups: 3,
        recovers: 2,
        window: 16,
        cold_per_s: 420,
        wire_per_s: 380,
        rw_reads_per_s: 320,
        batches_per_s: 20,
        batch_ops: 4,
        min_searches: 3000,
        sample: 12,
    };

    /// The smoke size: the same paths on a few hundred albums.
    pub const SMOKE: Size = Size {
        albums: 400,
        replica_sets: 1,
        setups: 1,
        recovers: 1,
        window: 8,
        cold_per_s: 40,
        wire_per_s: 40,
        rw_reads_per_s: 20,
        batches_per_s: 10,
        batch_ops: 4,
        min_searches: 16,
        sample: 4,
    };
}

/// The four native languages, one per base store.
pub const LANGUAGES: [&str; 4] = ["transactions", "catalogue", "similar", "discount"];

/// One augmented search of a sequence.
#[derive(Debug, Clone)]
pub struct Search {
    /// Target database (selects the native language).
    pub database: &'static str,
    /// Native query text.
    pub query: String,
    /// Augmentation level.
    pub level: usize,
    /// Set on filtered searches (`augmented_search_filtered`).
    pub filter: Option<Pushdown>,
    /// First `seq` of the window, so the trace can render the same
    /// window in the other languages.
    pub lo: usize,
}

/// The native query selecting the `window` objects from `lo` on.
pub fn window_query(database: &str, lo: usize, window: usize) -> String {
    let hi = lo + window;
    match database {
        "transactions" => format!("SELECT * FROM inventory WHERE seq >= {lo} AND seq < {hi}"),
        "catalogue" => format!(r#"db.albums.find({{"seq":{{"$gte":{lo},"$lt":{hi}}}}})"#),
        "similar" => format!("MATCH (n:Album) WHERE n.seq >= {lo} AND n.seq < {hi} RETURN n"),
        // Discount keys are `k<seq>:<artist>:<title>` and only every
        // other album has one: a prefix of the window's leading digits
        // selects a full window of them.
        "discount" => format!("SCAN k{} COUNT {window}", lo / 100),
        other => panic!("no window query for database {other}"),
    }
}

fn search(database: &'static str, lo: usize, window: usize, level: usize) -> Search {
    Search { database, query: window_query(database, lo, window), level, filter: None, lo }
}

/// cold-mix: level-0 and level-1 windows round-robin over the four
/// languages; every fourth search carries a selective `year` filter.
/// Position `i` runs language `i % 4` at level `(i / 4) % 2`; it is
/// filtered when `(i / 4) % 4 == i % 4`, so each block of sixteen holds
/// one filtered search per language.
pub fn cold_mix(size: &Size, seed: u64, seconds: u64) -> Vec<Search> {
    let n = search_count(size.cold_per_s, seconds, size.min_searches, 16);
    let mut rng = SplitMix::new(seed).fork("cold-mix");
    let year = 2000 + rng.below(12) as i64;
    let filter = Pushdown::path("year", PushOp::Gte, Value::Int(year));
    (0..n)
        .map(|i| {
            let lo = rng.below(size.albums - size.window);
            let mut s = search(LANGUAGES[i % 4], lo, size.window, (i / 4) % 2);
            if (i / 4) % 4 == i % 4 {
                s.filter = Some(filter.clone());
            }
            s
        })
        .collect()
}

/// wire-zipf: level-1 relational windows whose ranks are drawn
/// Zipf(s = 1.1) over the album range.
pub fn wire_zipf(size: &Size, seed: u64, seconds: u64) -> Vec<Search> {
    let n = search_count(size.wire_per_s, seconds, size.min_searches, 2);
    let ranks = size.albums / size.window;
    let mut sampler =
        ZipfSampler::new(ranks, 1.1, SplitMix::new(seed).fork("wire-zipf").next_u64());
    (0..n).map(|_| search("transactions", sampler.sample() * size.window, size.window, 1)).collect()
}

/// read-write reader: level-1 windows round-robin over the languages.
pub fn rw_reads(size: &Size, seed: u64, seconds: u64) -> Vec<Search> {
    let n = search_count(size.rw_reads_per_s, seconds, size.min_searches, 4);
    let mut rng = SplitMix::new(seed).fork("rw-reads");
    (0..n)
        .map(|i| search(LANGUAGES[i % 4], rng.below(size.albums - size.window), size.window, 1))
        .collect()
}

fn search_count(per_s: usize, seconds: u64, min: usize, round: usize) -> usize {
    let n = (per_s * seconds as usize).max(min);
    n.div_ceil(round) * round
}

/// The writer's batches. Every workload runs the same writer: against
/// the reader on read-write, alone after the reads on the other two.
/// `shard_entries` is each index shard's live entry count at set-up
/// (`Quepa::index_shard_stats`), which the writer aims by.
pub fn batches(size: &Size, seed: u64, seconds: u64, shard_entries: &[usize]) -> Vec<Vec<IndexOp>> {
    let count = size.batches_per_s * seconds as usize;
    mutations(size, &mut SplitMix::new(seed).fork("writer"), count, shard_entries)
}

/// How many distinct keys of one shard the writer touches: half as many
/// again as the overlay that makes the program compact the shard (an
/// eighth of its base, at least 64). The shard crosses that line once,
/// and the commit that compacts it writes a checkpoint cut.
pub fn aimed_touches(entries: usize) -> usize {
    let compacts_above = 64.max(entries / 8);
    compacts_above + compacts_above / 2
}

/// `count` batches of `size.batch_ops` random ops, plus the ops aimed at
/// one seeded shard, spread evenly among them.
///
/// Of the random ops, fifteen in sixteen are `InsertMatching` between
/// existing keys (a sale or customer and an album copy), the rest
/// `RemoveObject` of a sale line. Removed keys are never insertion
/// endpoints, so every acknowledged insert must still be in the index
/// after the run.
///
/// A matching insert touches its first endpoint and every copy of the
/// album (the index joins the endpoint to the album's identity clique),
/// so each touches about ten keys spread over all shards. The random ops
/// leave every shard far below its compaction line. The aimed inserts
/// join a sale or customer of the target shard to an album copy there,
/// favouring albums with more copies in it, until the writer touches
/// `aimed_touches` distinct keys of that shard (`quepa_aindex::shard::route`).
pub fn mutations(
    size: &Size,
    rng: &mut SplitMix,
    count: usize,
    shard_entries: &[usize],
) -> Vec<Vec<IndexOp>> {
    let suffixes = suffixes(size.replica_sets);
    let background: Vec<IndexOp> =
        (0..count * size.batch_ops).map(|_| random_op(size, rng, &suffixes)).collect();
    let target = rng.below(shard_entries.len().max(1));
    let goal = aimed_touches(shard_entries.get(target).copied().unwrap_or(0));
    let mut touched: BTreeSet<GlobalKey> = background
        .iter()
        .flat_map(|op| touches(op, size.replica_sets))
        .filter(|k| route(k) == target)
        .collect();
    let aimed = aim(size, rng, target, goal, &mut touched);
    let (n, k) = (background.len(), aimed.len());
    let mut aimed = aimed.into_iter();
    let mut merged = Vec::with_capacity(n + k);
    for (i, op) in background.into_iter().enumerate() {
        // Aimed op `j` goes before random op `(j + 1)·n / (k + 1)`.
        while merged.len() - i < k && (merged.len() - i + 1) * n / (k + 1) <= i {
            merged.extend(aimed.next());
        }
        merged.push(op);
    }
    merged.extend(aimed);
    merged.chunks(size.batch_ops.max(1)).map(<[IndexOp]>::to_vec).collect()
}

fn random_op(size: &Size, rng: &mut SplitMix, suffixes: &[String]) -> IndexOp {
    if rng.below(16) == 0 {
        let line = format!("i{}_0", rng.below(size.albums));
        return IndexOp::RemoveObject { key: key("transactions", "sales_details", &line) };
    }
    let a = random_buyer(size, rng);
    let album = rng.below(size.albums);
    let suffix = rng.pick(suffixes);
    let b = album_copy(album, suffix, rng.below(3));
    IndexOp::InsertMatching { a, b, p: random_p(rng) }
}

fn random_buyer(size: &Size, rng: &mut SplitMix) -> GlobalKey {
    if rng.chance(50) {
        key("transactions", "sales", &format!("s{}", rng.below(size.albums)))
    } else {
        key("catalogue", "customers", &format!("c{}", rng.below((size.albums / 10).max(1))))
    }
}

fn random_p(rng: &mut SplitMix) -> Probability {
    Probability::of(0.6 + 0.01 * rng.below(36) as f64)
}

/// Inserts that add keys of shard `target` to `touched` until it holds
/// `goal` of them: each joins an unused sale or customer of the shard
/// (a random one once those run out) to a copy there of an unused album.
fn aim(
    size: &Size,
    rng: &mut SplitMix,
    target: usize,
    goal: usize,
    touched: &mut BTreeSet<GlobalKey>,
) -> Vec<IndexOp> {
    let mut buyers: Vec<GlobalKey> = (0..size.albums)
        .map(|s| key("transactions", "sales", &format!("s{s}")))
        .chain(
            (0..(size.albums / 10).max(1)).map(|c| key("catalogue", "customers", &format!("c{c}"))),
        )
        .filter(|k| route(k) == target)
        .collect();
    shuffle(&mut buyers, rng);
    let mut albums: Vec<Vec<GlobalKey>> = (0..size.albums)
        .map(|album| {
            let mut copies = album_copies(album, size.replica_sets);
            copies.retain(|k| route(k) == target);
            copies
        })
        .filter(|copies| !copies.is_empty())
        .collect();
    shuffle(&mut albums, rng);
    albums.sort_by_key(|copies| std::cmp::Reverse(copies.len()));
    let mut aimed = Vec::new();
    for copies in albums {
        if touched.len() >= goal {
            break;
        }
        let a = buyers.pop().unwrap_or_else(|| random_buyer(size, rng));
        let b = copies[rng.below(copies.len())].clone();
        if route(&a) == target {
            touched.insert(a.clone());
        }
        touched.extend(copies);
        aimed.push(IndexOp::InsertMatching { a, b, p: random_p(rng) });
    }
    aimed
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The keys an op touches in the index, as the §VII-A wiring has it: a
/// removal its key; a matching insert its first endpoint and every copy
/// of the second endpoint's album (a discount key aside).
pub fn touches(op: &IndexOp, replica_sets: usize) -> Vec<GlobalKey> {
    match op {
        IndexOp::InsertMatching { a, b, .. } => {
            let album = b.key().as_str()[1..].parse().expect("the writer inserts album copies");
            let mut keys = album_copies(album, replica_sets);
            keys.push(a.clone());
            keys
        }
        IndexOp::RemoveObject { key } => vec![key.clone()],
        other => panic!("the benchmark writer never issues {other:?}"),
    }
}

/// Every copy of `album` in the base set and the replica sets.
fn album_copies(album: usize, replica_sets: usize) -> Vec<GlobalKey> {
    suffixes(replica_sets)
        .iter()
        .flat_map(|suffix| (0..3).map(move |kind| album_copy(album, suffix, kind)))
        .collect()
}

/// Copy `kind` (0 relational, 1 document, 2 graph) of `album` in the
/// replica set named by `suffix`.
fn album_copy(album: usize, suffix: &str, kind: usize) -> GlobalKey {
    match kind {
        0 => key(&format!("transactions{suffix}"), "inventory", &format!("a{album}")),
        1 => key(&format!("catalogue{suffix}"), "albums", &format!("d{album}")),
        _ => key(&format!("similar{suffix}"), "album", &format!("g{album}")),
    }
}

fn suffixes(replica_sets: usize) -> Vec<String> {
    (0..=replica_sets).map(|r| if r == 0 { String::new() } else { format!("_r{r}") }).collect()
}

/// A global key from its three parts.
pub fn key(db: &str, coll: &str, local: &str) -> GlobalKey {
    GlobalKey::parse_parts(db, coll, local).expect("benchmark keys are valid")
}

/// Feeds `model` the p-relations of the §VII-A polystore, restated from
/// the paper's wiring rather than read back from the program: one
/// identity clique per album over all of its copies (chained inserts in
/// copy order, transitivity materializes the rest) and the sale ↔
/// customer, sale ↔ line and line ↔ item matchings.
pub fn feed_model(model: &mut ModelIndex, data: &MusicData, replica_sets: usize) {
    let suffixes = suffixes(replica_sets);
    for album in &data.albums {
        let mut copies = Vec::with_capacity(1 + 3 * suffixes.len());
        for s in &suffixes {
            copies.push(key(&format!("transactions{s}"), "inventory", &format!("a{}", album.seq)));
            copies.push(key(&format!("catalogue{s}"), "albums", &format!("d{}", album.seq)));
            copies.push(key(&format!("similar{s}"), "album", &format!("g{}", album.seq)));
        }
        if album.discounted {
            copies.push(key(
                "discount",
                "drop",
                &discount_key(album.seq, &album.artist, &album.title),
            ));
        }
        let p = Probability::of(0.90 + 0.0005 * (album.seq % 100) as f64 / 10.0);
        for pair in copies.windows(2) {
            model.insert_identity(&pair[0], &pair[1], p);
        }
    }
    for sale in &data.sales {
        let sale_key = key("transactions", "sales", &format!("s{}", sale.seq));
        let customer = key("catalogue", "customers", &format!("c{}", sale.customer));
        model.insert_matching(&sale_key, &customer, Probability::of(0.75));
        for (j, item) in sale.items.iter().enumerate() {
            let line = key("transactions", "sales_details", &format!("i{}_{j}", sale.seq));
            let item = key("transactions", "inventory", &format!("a{item}"));
            model.insert_matching(&sale_key, &line, Probability::of(0.99));
            model.insert_matching(&line, &item, Probability::of(0.7));
        }
    }
}

/// Applies one logical op to the reference model.
pub fn apply_to_model(model: &mut ModelIndex, op: &IndexOp) {
    match op {
        IndexOp::InsertMatching { a, b, p } => model.insert_matching(a, b, *p),
        IndexOp::InsertIdentity { a, b, p } => model.insert_identity(a, b, *p),
        IndexOp::RemoveObject { key } => model.remove_key(key),
        other => panic!("the benchmark writer never issues {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_seeded() {
        let size = Size::SMOKE;
        let a: Vec<String> = cold_mix(&size, 7, 1).into_iter().map(|s| s.query).collect();
        let b: Vec<String> = cold_mix(&size, 7, 1).into_iter().map(|s| s.query).collect();
        let c: Vec<String> = cold_mix(&size, 8, 1).into_iter().map(|s| s.query).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let entries = [400; 16];
        assert_eq!(batches(&size, 3, 2, &entries), batches(&size, 3, 2, &entries));
    }

    #[test]
    fn cold_mix_filters_one_in_four_across_languages() {
        let seq = cold_mix(&Size::SMOKE, 1, 1);
        assert_eq!(seq.len() % 16, 0);
        let filtered: Vec<_> = seq.iter().filter(|s| s.filter.is_some()).collect();
        assert_eq!(filtered.len() * 4, seq.len());
        for db in LANGUAGES {
            assert!(filtered.iter().any(|s| s.database == db), "{db} never filtered");
        }
    }

    #[test]
    fn writer_overfills_exactly_one_shard() {
        let size = Size::SMOKE;
        let entries = [900; 16];
        let compacts_above = 900 / 8;
        let mut touched: Vec<BTreeSet<GlobalKey>> = vec![BTreeSet::new(); 16];
        for op in batches(&size, 5, 1, &entries).iter().flatten() {
            for key in touches(op, size.replica_sets) {
                touched[route(&key)].insert(key);
            }
        }
        let over: Vec<usize> = touched.iter().map(BTreeSet::len).collect();
        assert_eq!(over.iter().filter(|&&n| n > compacts_above).count(), 1, "{over:?}");
        assert!(over.iter().all(|&n| n < 2 * compacts_above), "{over:?}");
    }

    #[test]
    fn window_queries_select_the_window() {
        assert_eq!(
            window_query("transactions", 40, 16),
            "SELECT * FROM inventory WHERE seq >= 40 AND seq < 56"
        );
    }
}
