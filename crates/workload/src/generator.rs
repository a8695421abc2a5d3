//! Day-scale workload assembly.
//!
//! Produces whole days of client events with known ground truth (session
//! counts, funnel stage counts, per-client mix) and writes them into the
//! warehouse in the paper's layout: hourly partitions, several part files
//! per hour, records only *partially* time-ordered within a file (§2).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uli_core::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
use uli_core::columnar::{write_client_events_columnar, DEFAULT_ROWS_PER_GROUP};
use uli_core::event::{EventInitiator, EventName};
use uli_core::legacy::LegacyCategory;
use uli_core::time::{Timestamp, MS_PER_DAY};
use uli_thrift::ThriftRecord;
use uli_warehouse::{HourlyPartition, Warehouse, WarehouseResult};

use crate::behavior::BehaviorModel;
use crate::funnels::{signup_funnel, FunnelSpec};
use crate::universe::{build_universe, UniverseConfig};

/// Everything that shapes a generated day.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed; the day index is folded in, so multi-day runs differ.
    pub seed: u64,
    /// Number of distinct users.
    pub users: u64,
    /// Mean sessions per user per day (Poisson).
    pub mean_sessions_per_user: f64,
    /// Mean events per session (geometric, minimum 1).
    pub mean_session_len: f64,
    /// Zipf skew of base event frequencies.
    pub zipf_alpha: f64,
    /// Universe shape.
    pub universe: UniverseConfig,
    /// Client mix, parallel to `universe.clients` (normalized internally).
    pub client_weights: Vec<f64>,
    /// Funnel to inject, if any.
    pub funnel: Option<FunnelSpec>,
    /// Fraction of *web* sessions that are funnel sessions.
    pub funnel_fraction: f64,
    /// Fraction of sessions belonging to logged-out visitors (user id 0).
    pub logged_out_fraction: f64,
    /// Mean gap between successive events within a session, milliseconds.
    pub mean_event_gap_ms: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x7717_7e4a,
            users: 200,
            mean_sessions_per_user: 2.0,
            mean_session_len: 12.0,
            zipf_alpha: 1.1,
            universe: UniverseConfig::default(),
            client_weights: vec![0.5, 0.3, 0.2],
            funnel: Some(signup_funnel()),
            funnel_fraction: 0.12,
            logged_out_fraction: 0.15,
            mean_event_gap_ms: 20_000.0,
        }
    }
}

/// What the generator knows to be true — experiments recover these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// Sessions generated.
    pub sessions: u64,
    /// Events generated.
    pub events: u64,
    /// Sessions that entered the funnel.
    pub funnel_sessions: u64,
    /// Sessions reaching each funnel stage (len = stages).
    pub funnel_stage_counts: Vec<u64>,
    /// Sessions per client.
    pub sessions_by_client: BTreeMap<String, u64>,
    /// Distinct event names that occurred.
    pub distinct_events: u64,
}

/// A generated day.
#[derive(Debug, Clone)]
pub struct DayWorkload {
    /// All events, in generation order (NOT globally time-sorted).
    pub events: Vec<ClientEvent>,
    /// The ground truth.
    pub truth: GroundTruth,
}

fn poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    // Knuth's method; fine for the small means used here.
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // guard against pathological means
        }
    }
}

fn ip_of_user(user: u64) -> String {
    let h = user.wrapping_mul(0x9e3779b97f4a7c15);
    format!(
        "{}.{}.{}.{}",
        (h >> 24) & 0xff,
        (h >> 16) & 0xff,
        (h >> 8) & 0xff,
        h & 0xff
    )
}

/// Builds one fully-decorated event. RNG call order is load-bearing: the
/// golden generator hashes pin the exact draw sequence, so any reordering
/// here changes every downstream golden.
fn emit_event(
    name: EventName,
    t: i64,
    user_id: i64,
    session_id: &str,
    ip: &str,
    rng: &mut StdRng,
) -> ClientEvent {
    let initiator = if name.action() == "impression" && rng.gen::<f64>() < 0.3 {
        EventInitiator::CLIENT_APP
    } else {
        EventInitiator::CLIENT_USER
    };
    let referrer = format!("/{}", name.page());
    let mut ev = ClientEvent::new(
        initiator,
        name,
        user_id,
        session_id.to_string(),
        ip.to_string(),
        Timestamp(t),
    );
    // Client events are verbose — the §4.1 downside the
    // sequences exist to offset. Every event carries the
    // boilerplate a real client attaches.
    const USER_AGENTS: [&str; 6] = [
        "Mozilla/5.0 (Windows NT 6.1; rv:14.0) Gecko/20100101 Firefox/14.0",
        "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_7) AppleWebKit/536 Safari/536",
        "Mozilla/5.0 (iPhone; CPU iPhone OS 5_1 like Mac OS X) Mobile/9B176",
        "TwitterAndroid/3.2 (Linux; Android 4.0.4; GT-I9100)",
        "Mozilla/5.0 (X11; Linux x86_64) Chrome/21.0.1180.57",
        "Mozilla/5.0 (Windows NT 5.1) Chrome/20.0.1132.57 Safari/536.11",
    ];
    ev = ev
        .with_detail("client_version", "4.1.2")
        .with_detail(
            "user_agent",
            USER_AGENTS[rng.gen_range(0..USER_AGENTS.len())],
        )
        .with_detail("lang", "en")
        .with_detail("referrer", referrer)
        // High-entropy request id: the incompressible part
        // of real log payloads (trace ids, URLs, tweet ids).
        .with_detail(
            "request_id",
            format!("{:016x}{:016x}", rng.gen::<u64>(), rng.gen::<u64>()),
        )
        .with_detail("page_load_ms", format!("{}", rng.gen_range(40..2500)));
    match ev.name.action() {
        "click" | "profile_click" | "follow" => {
            ev = ev
                .with_detail("target_id", format!("{}", rng.gen::<u32>()))
                .with_detail(
                    "target_url",
                    format!("https://t.co/{:010x}", rng.gen::<u64>() & 0xff_ffff_ffff),
                )
                .with_detail("rank", format!("{}", rng.gen_range(0..20)));
        }
        "impression" => {
            ev = ev.with_detail("tweet_id", format!("{}", rng.gen::<u64>()));
        }
        _ => {}
    }
    ev
}

/// Streaming day generator: yields the exact event sequence of the old
/// batch generator without ever materializing the day. Peak state is one
/// buffered session (tens of events) plus the per-client Markov models —
/// a million-user day streams through this in O(session) memory.
///
/// [`GroundTruth`] accumulates as events are drawn; it is complete (and
/// includes `distinct_events`) only once the iterator is exhausted.
pub struct DayStream {
    config: WorkloadConfig,
    day_index: u64,
    rng: StdRng,
    per_client: Vec<(String, BehaviorModel)>,
    weight_total: f64,
    day_start: i64,
    truth: GroundTruth,
    distinct: BTreeSet<EventName>,
    /// User whose sessions are currently being drawn (1-based; 0 = before
    /// the first user).
    user: u64,
    sessions_left: u64,
    session_index: u64,
    buffered: VecDeque<ClientEvent>,
}

impl DayStream {
    /// Starts a day. Setup mirrors the old batch generator exactly so the
    /// RNG stream — and therefore every emitted byte — is unchanged.
    pub fn new(config: &WorkloadConfig, day_index: u64) -> DayStream {
        assert_eq!(
            config.client_weights.len(),
            config.universe.clients.len(),
            "one weight per client"
        );
        let rng = StdRng::seed_from_u64(config.seed ^ (day_index.wrapping_mul(0x9e37_79b9)));
        let universe = build_universe(&config.universe);

        // Per-client models over each client's slice of the universe. Funnel
        // stages stay OUT of the Markov support: only explicit funnel sessions
        // emit them, so funnel ground truth is exactly recoverable.
        let mut per_client: Vec<(String, BehaviorModel)> = Vec::new();
        for client in &config.universe.clients {
            let slice: Vec<EventName> = universe
                .iter()
                .filter(|n| n.client() == *client)
                .cloned()
                .collect();
            per_client.push((
                client.to_string(),
                BehaviorModel::with_default_boosts(slice, config.zipf_alpha),
            ));
        }
        let weight_total: f64 = config.client_weights.iter().sum();
        let truth = GroundTruth {
            funnel_stage_counts: config
                .funnel
                .as_ref()
                .map(|f| vec![0; f.len()])
                .unwrap_or_default(),
            ..Default::default()
        };
        DayStream {
            config: config.clone(),
            day_index,
            rng,
            per_client,
            weight_total,
            day_start: day_index as i64 * MS_PER_DAY,
            truth,
            distinct: BTreeSet::new(),
            user: 0,
            sessions_left: 0,
            session_index: 0,
            buffered: VecDeque::new(),
        }
    }

    /// The ground truth accumulated so far. Complete only after the
    /// iterator has returned `None`; [`Self::into_truth`] is the usual way
    /// to take it.
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Consumes the stream and returns the ground truth for everything it
    /// yielded (the full day iff the stream was exhausted).
    pub fn into_truth(mut self) -> GroundTruth {
        self.truth.distinct_events = self.distinct.len() as u64;
        self.truth
    }

    /// Generates the next session for the current user into `buffered`.
    fn gen_session(&mut self) {
        let user = self.user;
        let s = self.session_index;
        // Pick a client by weight.
        let mut pick = self.rng.gen::<f64>() * self.weight_total;
        let mut client_idx = 0;
        for (i, w) in self.config.client_weights.iter().enumerate() {
            if pick < *w {
                client_idx = i;
                break;
            }
            pick -= w;
            client_idx = i;
        }
        let (client, model) = &self.per_client[client_idx];

        let logged_out = self.rng.gen::<f64>() < self.config.logged_out_fraction;
        let user_id = if logged_out { 0 } else { user as i64 };
        let session_id = format!("s-{user}-{}-{s}", self.day_index);
        let ip = ip_of_user(user);
        // Sessions start early enough that even long ones stay within
        // the day (keeps ground truth exact for day-scoped jobs).
        let start = self.day_start + (self.rng.gen::<f64>() * (MS_PER_DAY as f64 * 0.9)) as i64;

        let is_funnel = *client == "web"
            && self.config.funnel.is_some()
            && self.rng.gen::<f64>() < self.config.funnel_fraction;

        let mut t = start;
        let mut emitted = 0u64;
        if is_funnel {
            let funnel = self.config.funnel.as_ref().expect("checked above");
            let depth = funnel.sample_depth(&mut self.rng);
            self.truth.funnel_sessions += 1;
            for (i, stage) in funnel.stages.iter().take(depth).enumerate() {
                self.truth.funnel_stage_counts[i] += 1;
                let ev = emit_event(stage.clone(), t, user_id, &session_id, &ip, &mut self.rng);
                self.distinct.insert(ev.name.clone());
                self.buffered.push_back(ev);
                emitted += 1;
                t += 1 + (-(self.rng.gen::<f64>()).ln() * self.config.mean_event_gap_ms) as i64;
            }
        } else {
            // Geometric session length with the configured mean.
            let cont = 1.0 - 1.0 / self.config.mean_session_len.max(1.0);
            let mut cur = model.start(&mut self.rng);
            loop {
                let ev = emit_event(
                    model.universe()[cur].clone(),
                    t,
                    user_id,
                    &session_id,
                    &ip,
                    &mut self.rng,
                );
                self.distinct.insert(ev.name.clone());
                self.buffered.push_back(ev);
                emitted += 1;
                if self.rng.gen::<f64>() >= cont {
                    break;
                }
                cur = model.step(cur, &mut self.rng);
                t += 1 + (-(self.rng.gen::<f64>()).ln() * self.config.mean_event_gap_ms) as i64;
            }
        }
        let client = client.clone();
        self.truth.sessions += 1;
        self.truth.events += emitted;
        *self.truth.sessions_by_client.entry(client).or_insert(0) += 1;
    }
}

impl Iterator for DayStream {
    type Item = ClientEvent;

    fn next(&mut self) -> Option<ClientEvent> {
        loop {
            if let Some(ev) = self.buffered.pop_front() {
                return Some(ev);
            }
            if self.sessions_left > 0 {
                self.gen_session();
                self.sessions_left -= 1;
                self.session_index += 1;
                continue;
            }
            if self.user < self.config.users {
                self.user += 1;
                self.session_index = 0;
                self.sessions_left = poisson(self.config.mean_sessions_per_user, &mut self.rng);
                continue;
            }
            self.truth.distinct_events = self.distinct.len() as u64;
            return None;
        }
    }
}

/// Generates one day of traffic by draining a [`DayStream`]. Kept for
/// callers that want the whole day in memory; large-scale paths should
/// iterate the stream directly.
pub fn generate_day(config: &WorkloadConfig, day_index: u64) -> DayWorkload {
    let mut stream = DayStream::new(config, day_index);
    let events: Vec<ClientEvent> = stream.by_ref().collect();
    DayWorkload {
        events,
        truth: stream.into_truth(),
    }
}

/// Named workload sizes for the scale benchmark (`--scale` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// CI-sized: 120 users, a couple thousand events.
    Smoke,
    /// The historical default config: 200 users.
    #[default]
    Default,
    /// A million users, ~1.2M sessions, >10M events — the paper's
    /// "hundreds of millions of users" day shrunk to one machine.
    OneM,
}

impl Scale {
    /// Parses a `--scale` flag value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "1m" => Some(Scale::OneM),
            _ => None,
        }
    }

    /// The flag spelling, for report labels.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::OneM => "1m",
        }
    }

    /// The workload this scale generates. Only population knobs vary;
    /// everything else keeps the default shape so per-event statistics
    /// are comparable across scales.
    pub fn config(self) -> WorkloadConfig {
        match self {
            Scale::Smoke => WorkloadConfig {
                users: 120,
                ..Default::default()
            },
            Scale::Default => WorkloadConfig::default(),
            Scale::OneM => WorkloadConfig {
                users: 1_000_000,
                mean_sessions_per_user: 1.2,
                mean_session_len: 9.0,
                ..Default::default()
            },
        }
    }
}

/// Records per part file of the streamed landing: the `records_per_file`
/// the delivered day's log mover cuts its columnar files at.
const STREAM_RECORDS_PER_FILE: usize = 10_000;

/// Lands one part file through the columnar writer the log mover's landing
/// uses: name dictionary from the file's own events, default row groups.
fn write_part(
    warehouse: &Warehouse,
    hour: u64,
    part: usize,
    events: &[ClientEvent],
) -> WarehouseResult<u64> {
    let dir = HourlyPartition::from_hour_index(CLIENT_EVENTS_CATEGORY, hour).main_dir();
    let path = dir.child(&format!("part-{part:05}")).expect("valid name");
    write_client_events_columnar(warehouse, &path, events, true, DEFAULT_ROWS_PER_GROUP)
}

/// Writes a day's events into the warehouse as the log mover leaves them:
/// per-hour directories of columnar part files, `files_per_hour` each,
/// records only partially time-ordered (events are distributed round-robin,
/// so each file is ordered but the directory as a whole is interleaved).
pub fn write_client_events(
    warehouse: &Warehouse,
    events: &[ClientEvent],
    files_per_hour: usize,
) -> WarehouseResult<u64> {
    assert!(files_per_hour > 0);
    let mut buckets: BTreeMap<u64, Vec<Vec<ClientEvent>>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let files = buckets
            .entry(ev.timestamp.hour_index())
            .or_insert_with(|| vec![Vec::new(); files_per_hour]);
        files[i % files_per_hour].push(ev.clone());
    }
    let mut written = 0u64;
    for (hour, files) in buckets {
        for (part, bucket) in files.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            written += write_part(warehouse, hour, part, bucket)?;
        }
    }
    Ok(written)
}

/// The paper's raw log (§4.1): the same hours and round-robin part files as
/// [`write_client_events`], one Thrift record per event in row-format files
/// whose blocks carry zone annotations. Nothing lands this way any more; it
/// is the baseline the paper-table experiments measure against and the
/// reference of the row-vs-columnar equivalence suites.
pub fn write_paper_raw_log(
    warehouse: &Warehouse,
    events: &[ClientEvent],
    files_per_hour: usize,
) -> WarehouseResult<u64> {
    write_partitioned(warehouse, events, files_per_hour, |ev| {
        // Annotate every record so sealed blocks carry zone maps: timestamp
        // as the key dimension, event name as the tag dimension.
        let zone = Some((
            ev.timestamp.millis(),
            uli_warehouse::tag_hash(ev.name.as_str().as_bytes()),
        ));
        (CLIENT_EVENTS_CATEGORY.to_string(), ev.to_bytes(), zone)
    })
}

/// Streaming landing: events from an iterator, never the day in a `Vec`.
/// Each hour buffers its arrivals and cuts a part file, through the writer
/// of [`write_client_events`], every [`STREAM_RECORDS_PER_FILE`] of them —
/// so an hour's files hold its events in arrival order and at most
/// 24 × that many events are held, whatever the day's size.
pub fn land_day_stream(
    warehouse: &Warehouse,
    events: impl IntoIterator<Item = ClientEvent>,
) -> WarehouseResult<u64> {
    land_stream_cut_at(warehouse, events, STREAM_RECORDS_PER_FILE)
}

fn land_stream_cut_at(
    warehouse: &Warehouse,
    events: impl IntoIterator<Item = ClientEvent>,
    records_per_file: usize,
) -> WarehouseResult<u64> {
    // hour → (part files cut so far, arrivals since the last cut).
    let mut hours: BTreeMap<u64, (usize, Vec<ClientEvent>)> = BTreeMap::new();
    let mut written = 0u64;
    for ev in events {
        let hour = ev.timestamp.hour_index();
        let (parts, buffer) = hours.entry(hour).or_default();
        buffer.push(ev);
        if buffer.len() == records_per_file {
            written += write_part(warehouse, hour, *parts, buffer)?;
            *parts += 1;
            buffer.clear();
        }
    }
    for (hour, (parts, buffer)) in hours {
        if !buffer.is_empty() {
            written += write_part(warehouse, hour, parts, &buffer)?;
        }
    }
    Ok(written)
}

/// Writes the same ground truth as application-specific logs: web traffic
/// to the JSON frontend category, search-page events to the TSV search
/// category, phone clients to the "natural language" mobile category. This
/// is the pre-unification world of §3.1 where "each application writes logs
/// using its own Scribe category".
pub fn write_legacy_events(
    warehouse: &Warehouse,
    events: &[ClientEvent],
    files_per_hour: usize,
) -> WarehouseResult<u64> {
    write_partitioned(warehouse, events, files_per_hour, |ev| {
        let cat = legacy_category_for(ev);
        // Legacy categories predate zone maps: no annotations, so their
        // blocks fail open (are always read) under zone-map pruning.
        (cat.category_name().to_string(), cat.encode(ev), None)
    })
}

/// Which legacy category an event would have been logged to.
pub fn legacy_category_for(ev: &ClientEvent) -> LegacyCategory {
    if ev.name.client() != "web" {
        LegacyCategory::MobileClient
    } else if ev.name.page() == "search" {
        LegacyCategory::SearchBackend
    } else {
        LegacyCategory::WebFrontend
    }
}

fn write_partitioned(
    warehouse: &Warehouse,
    events: &[ClientEvent],
    files_per_hour: usize,
    encode: impl Fn(&ClientEvent) -> (String, Vec<u8>, Option<(i64, u64)>),
) -> WarehouseResult<u64> {
    assert!(files_per_hour > 0);
    // (category, hour) → per-file buckets of (record, zone annotation).
    type Bucket = Vec<Vec<(Vec<u8>, Option<(i64, u64)>)>>;
    let mut buckets: BTreeMap<(String, u64), Bucket> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let (category, bytes, zone) = encode(ev);
        let hour = ev.timestamp.hour_index();
        let files = buckets
            .entry((category, hour))
            .or_insert_with(|| vec![Vec::new(); files_per_hour]);
        files[i % files_per_hour].push((bytes, zone));
    }
    let mut written = 0u64;
    for ((category, hour), files) in buckets {
        let dir = HourlyPartition::from_hour_index(&category, hour).main_dir();
        for (i, records) in files.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            let path = dir.child(&format!("part-{i:05}")).expect("valid name");
            let mut w = warehouse.create(&path)?;
            for (r, zone) in &records {
                match zone {
                    Some((key, tag)) => w.append_record_annotated(r, *key, *tag),
                    None => w.append_record(r),
                }
                written += 1;
            }
            w.finish()?;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uli_core::session::day_dir;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            users: 50,
            ..Default::default()
        }
    }

    /// FNV-1a 64 over every event's encoded bytes, in stream order.
    fn fingerprint(events: impl Iterator<Item = ClientEvent>) -> (u64, u64) {
        events.fold((uli_warehouse::FNV1A64_OFFSET, 0), |(h, n), ev| {
            (uli_warehouse::fnv1a64_fold(h, &ev.to_bytes()), n + 1)
        })
    }

    /// These hashes were computed from the batch generator BEFORE the
    /// streaming refactor. They pin two things at once: the refactor
    /// changed no emitted byte, and future edits can't silently shift
    /// the RNG draw order (`--scale smoke` goldens depend on it).
    #[test]
    fn golden_event_stream_hashes_are_stable() {
        let smoke = Scale::Smoke.config();
        let (h, n) = fingerprint(DayStream::new(&smoke, 0));
        assert_eq!((h, n), (0x6896_890f_d9fc_40e3, 2657), "smoke scale drifted");

        let default = Scale::Default.config();
        let mut stream = DayStream::new(&default, 0);
        let (h, n) = fingerprint(stream.by_ref());
        assert_eq!(
            (h, n),
            (0xaf2c_2183_83dd_aa2b, 4410),
            "default scale drifted"
        );
        assert_eq!(stream.into_truth().sessions, 382);
    }

    #[test]
    fn streaming_matches_batch_events_and_truth() {
        let config = small_config();
        let batch = generate_day(&config, 0);
        let mut stream = DayStream::new(&config, 0);
        let streamed: Vec<ClientEvent> = stream.by_ref().collect();
        assert_eq!(streamed, batch.events);
        assert_eq!(stream.into_truth(), batch.truth);
    }

    #[test]
    fn stream_is_identical_for_any_chunking() {
        // Pausing and resuming the stream at arbitrary points must not
        // change what it yields: the suspended-session state machine has
        // no hidden coupling to consumption pattern.
        let config = small_config();
        let reference: Vec<ClientEvent> = DayStream::new(&config, 0).collect();
        for chunk in [1usize, 3, 7, 100, 2500] {
            let mut stream = DayStream::new(&config, 0);
            let mut got = Vec::new();
            loop {
                let piece: Vec<ClientEvent> = stream.by_ref().take(chunk).collect();
                if piece.is_empty() {
                    break;
                }
                got.extend(piece);
            }
            assert_eq!(got, reference, "chunk size {chunk} changed the stream");
        }
    }

    /// Day 0's landed files in path order, each with its decoded events at
    /// full width in stored order.
    fn decoded_files(wh: &Warehouse) -> Vec<(uli_warehouse::WhPath, Vec<ClientEvent>)> {
        let mut files = wh
            .list_files_recursive(&day_dir(CLIENT_EVENTS_CATEGORY, 0))
            .unwrap();
        files.sort();
        files
            .into_iter()
            .map(|path| {
                let file = uli_warehouse::ScanFile::open(wh, &path).unwrap();
                let mut events = Vec::new();
                let (_, skipped) = uli_core::for_each_event_row(
                    &file,
                    0..file.units(),
                    uli_core::columnar::ALL_COLUMNS,
                    |_, row| {
                        events.push(row.to_event()?);
                        Ok(())
                    },
                )
                .unwrap();
                assert_eq!(skipped, 0, "{}", path.as_str());
                (path, events)
            })
            .collect()
    }

    /// Decoded events per hour, files concatenated in path order.
    fn decoded_by_hour(wh: &Warehouse) -> BTreeMap<u64, Vec<ClientEvent>> {
        let mut hours: BTreeMap<u64, Vec<ClientEvent>> = BTreeMap::new();
        for (_, events) in decoded_files(wh) {
            let hour = events[0].timestamp.hour_index();
            hours.entry(hour).or_default().extend(events);
        }
        hours
    }

    #[test]
    fn streamed_landing_decodes_to_the_streamed_events_in_arrival_order() {
        let config = small_config();
        let streamed: Vec<ClientEvent> = DayStream::new(&config, 0).collect();
        let mut arrivals: BTreeMap<u64, Vec<ClientEvent>> = BTreeMap::new();
        for ev in &streamed {
            let hour = ev.timestamp.hour_index();
            arrivals.entry(hour).or_default().push(ev.clone());
        }
        // A cut the small day crosses many times, one it never reaches, and
        // the production entry point.
        for cut in [7usize, 100_000] {
            let wh = Warehouse::new();
            let written = land_stream_cut_at(&wh, streamed.iter().cloned(), cut).unwrap();
            assert_eq!(written as usize, streamed.len());
            assert_eq!(decoded_by_hour(&wh), arrivals, "cut {cut}");
            for (path, events) in decoded_files(&wh) {
                assert!(events.len() <= cut, "{} over the cut", path.as_str());
                assert!(uli_warehouse::sniff_columnar(&wh, &path).unwrap().is_some());
                let file = uli_warehouse::ColumnarFile::open(&wh, &path).unwrap();
                assert_eq!(
                    file.dict_column(),
                    Some(uli_core::columnar::NAME_COLUMN),
                    "{} has no name dictionary",
                    path.as_str()
                );
            }
        }
        let wh = Warehouse::new();
        land_day_stream(&wh, DayStream::new(&config, 0)).unwrap();
        assert_eq!(decoded_by_hour(&wh), arrivals);
    }

    #[test]
    fn streamed_landing_agrees_with_batch_landing_on_decoded_content() {
        let config = small_config();
        let day = generate_day(&config, 0);
        let batch_wh = Warehouse::new();
        write_client_events(&batch_wh, &day.events, 4).unwrap();
        let stream_wh = Warehouse::new();
        let written = land_day_stream(&stream_wh, DayStream::new(&config, 0)).unwrap();
        assert_eq!(written as usize, day.events.len());
        // Same hours, same events in each; the batch helper deals an hour's
        // events round-robin over its files, so order within an hour is the
        // one thing that differs.
        let sorted = |wh: &Warehouse| -> BTreeMap<u64, Vec<Vec<u8>>> {
            decoded_by_hour(wh)
                .into_iter()
                .map(|(hour, events)| {
                    let mut bytes: Vec<Vec<u8>> = events.iter().map(|e| e.to_bytes()).collect();
                    bytes.sort();
                    (hour, bytes)
                })
                .collect()
        };
        assert_eq!(sorted(&batch_wh), sorted(&stream_wh));
    }

    #[test]
    fn scale_flag_parses_and_sizes_monotonically() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("1m"), Some(Scale::OneM));
        assert_eq!(Scale::parse("2xl"), None);
        assert_eq!(Scale::default().label(), "default");
        assert_eq!(Scale::OneM.config().users, 1_000_000);
        assert!(Scale::Smoke.config().users < Scale::Default.config().users);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_day(&small_config(), 0);
        let b = generate_day(&small_config(), 0);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events[0], b.events[0]);
        // Different day → different traffic.
        let c = generate_day(&small_config(), 1);
        assert_ne!(a.truth, c.truth);
    }

    #[test]
    fn truth_accounts_for_every_event_and_session() {
        let day = generate_day(&small_config(), 0);
        assert_eq!(day.truth.events as usize, day.events.len());
        let mut sessions: Vec<(&i64, &str)> = day
            .events
            .iter()
            .map(|e| (&e.user_id, e.session_id.as_str()))
            .collect();
        sessions.sort();
        sessions.dedup();
        assert_eq!(day.truth.sessions as usize, sessions.len());
        let by_client: u64 = day.truth.sessions_by_client.values().sum();
        assert_eq!(by_client, day.truth.sessions);
    }

    #[test]
    fn funnel_counts_decline() {
        let day = generate_day(
            &WorkloadConfig {
                users: 400,
                funnel_fraction: 0.5,
                ..Default::default()
            },
            0,
        );
        let counts = &day.truth.funnel_stage_counts;
        assert!(day.truth.funnel_sessions > 50);
        assert_eq!(counts[0], day.truth.funnel_sessions);
        for w in counts.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert!(counts[4] < counts[0]);
    }

    #[test]
    fn events_fall_inside_the_day() {
        let day = generate_day(&small_config(), 2);
        for ev in &day.events {
            assert_eq!(ev.timestamp.day_index(), 2);
        }
    }

    #[test]
    fn events_have_zipfian_skew() {
        let day = generate_day(&small_config(), 0);
        let mut counts: BTreeMap<&EventName, u64> = BTreeMap::new();
        for ev in &day.events {
            *counts.entry(&ev.name).or_insert(0) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // Top event should dwarf the median one.
        let median = freq[freq.len() / 2];
        assert!(freq[0] > median * 5, "top {} median {}", freq[0], median);
    }

    #[test]
    fn write_client_events_partitions_by_hour() {
        let wh = Warehouse::new();
        let day = generate_day(&small_config(), 0);
        let written = write_client_events(&wh, &day.events, 4).unwrap();
        assert_eq!(written as usize, day.events.len());
        let files = wh
            .list_files_recursive(&day_dir(CLIENT_EVENTS_CATEGORY, 0))
            .unwrap();
        assert!(files.len() > 4, "many hours × up to 4 files");
        // Directory-wide event count matches.
        let landed: usize = decoded_files(&wh).iter().map(|(_, e)| e.len()).sum();
        assert_eq!(landed, day.events.len());
    }

    #[test]
    fn raw_log_partitions_like_the_landing() {
        let day = generate_day(&small_config(), 0);
        let row = Warehouse::new();
        let written = write_paper_raw_log(&row, &day.events, 4).unwrap();
        assert_eq!(written as usize, day.events.len());
        let col = Warehouse::new();
        write_client_events(&col, &day.events, 4).unwrap();
        // Same directory shape — hour partitions and part-file names — and
        // the same events in each file; only the format differs.
        let (row_files, col_files) = (decoded_files(&row), decoded_files(&col));
        assert_eq!(row_files, col_files);
        for (path, _) in &row_files {
            assert!(uli_warehouse::sniff_columnar(&row, path).unwrap().is_none());
            assert!(uli_warehouse::sniff_columnar(&col, path).unwrap().is_some());
        }
    }

    /// Every landed event of day 0 at full width, decoded and re-encoded,
    /// folded per file in path order (so per hour, in file order) with each
    /// file's path and event count.
    fn decoded_digest(wh: &Warehouse) -> u64 {
        let mut h = uli_warehouse::FNV1A64_OFFSET;
        for (path, events) in decoded_files(wh) {
            h = uli_warehouse::fnv1a64_fold(h, path.as_str().as_bytes());
            for ev in &events {
                h = uli_warehouse::fnv1a64_fold(h, &ev.to_bytes());
            }
            // (events, skipped), as the scan reports them.
            h = uli_warehouse::fnv1a64_fold(h, &(events.len() as u64).to_le_bytes());
            h = uli_warehouse::fnv1a64_fold(h, &0u64.to_le_bytes());
        }
        h
    }

    /// Recorded before the helpers' landing moved from the row writer to the
    /// columnar one: which writer lands the smoke day moves bytes, not rows.
    #[test]
    fn smoke_day_decodes_to_one_digest_from_the_raw_log_and_the_landing() {
        const RECORDED: u64 = 248_631_621_863_002_800;
        let day = generate_day(&Scale::Smoke.config(), 0);
        let row = Warehouse::new();
        write_paper_raw_log(&row, &day.events, 4).unwrap();
        let col = Warehouse::new();
        write_client_events(&col, &day.events, 4).unwrap();
        assert_eq!(decoded_digest(&row), RECORDED, "row-landed smoke day");
        assert_eq!(decoded_digest(&col), RECORDED, "columnar-landed smoke day");
    }

    #[test]
    fn legacy_routing_covers_every_event_exactly_once() {
        let wh = Warehouse::new();
        let day = generate_day(&small_config(), 0);
        let written = write_legacy_events(&wh, &day.events, 2).unwrap();
        assert_eq!(written as usize, day.events.len());
        let mut total = 0;
        for cat in LegacyCategory::ALL {
            if let Ok(meta) = wh.dir_meta(&day_dir(cat.category_name(), 0)) {
                total += meta.records;
            }
        }
        assert_eq!(total as usize, day.events.len());
    }

    #[test]
    fn legacy_records_decode_with_their_category() {
        let wh = Warehouse::new();
        let day = generate_day(&small_config(), 0);
        write_legacy_events(&wh, &day.events, 1).unwrap();
        for cat in LegacyCategory::ALL {
            let dir = day_dir(cat.category_name(), 0);
            let Ok(files) = wh.list_files_recursive(&dir) else {
                continue;
            };
            for f in files.iter().take(1) {
                for rec in wh.open(f).unwrap().read_all().unwrap().iter().take(10) {
                    assert!(cat.decode(rec).is_some(), "{cat} record must decode");
                }
            }
        }
    }

    #[test]
    fn logged_out_sessions_have_user_zero() {
        let day = generate_day(
            &WorkloadConfig {
                users: 100,
                logged_out_fraction: 0.5,
                ..Default::default()
            },
            0,
        );
        let zero = day.events.iter().filter(|e| e.user_id == 0).count();
        assert!(zero > 0);
        assert!(zero < day.events.len());
    }
}
