//! What one run of a workload measures: set-up and timed-phase wall
//! time, peak memory, traffic and work deltas over the timed phase,
//! oracle tallies, result latencies, and a fingerprint of everything
//! deterministic (the trace-fidelity and repeatability check).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pier_core::testkit::{metrics_snapshot, stabilized_pier_nodes, PierEngine};
use pier_core::{MetricsSnapshot, PierNode};
use pier_dht::traffic::TrafficMeter;
use pier_dht::DhtConfig;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetStats, NodeId};

use crate::trace::{self, Drive, Kind, Tracer};

/// `testkit::stabilized_pier_nodes`, timed as one span: the overlay
/// build plus node construction.
pub fn stabilized_nodes(n: usize, cfg: &DhtConfig) -> Vec<PierNode> {
    trace::span("dht.can.build", || stabilized_pier_nodes(n, cfg))
}

/// `metrics_snapshot`, timed as a span.
pub fn snapshot(e: &impl PierEngine) -> MetricsSnapshot {
    trace::span("metrics.snapshot", || metrics_snapshot(e))
}

/// Wall time of one phase, cut into laps at points of the drive that
/// are the same in every run of a seed (the end of a set-up step, or a
/// fixed virtual-time boundary). Runs of one seed do identical work lap
/// by lap, so the runner can take each lap's fastest time across runs:
/// host noise only ever slows a lap down, and a slow spell then costs
/// only the laps that no run got through quickly.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    paused_at: Option<Instant>,
    paused: Duration,
    laps: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            paused_at: None,
            paused: Duration::ZERO,
            laps: Vec::new(),
        }
    }

    /// End the current lap.
    pub fn lap(&mut self) {
        self.resume();
        let now = Instant::now();
        self.laps
            .push((now - self.last - self.paused).as_secs_f64());
        self.last = now;
        self.paused = Duration::ZERO;
    }

    /// Stop the clock (oracle work inside a timed phase).
    pub fn pause(&mut self) {
        self.paused_at.get_or_insert_with(Instant::now);
    }

    pub fn resume(&mut self) {
        if let Some(at) = self.paused_at.take() {
            self.paused += at.elapsed();
        }
    }
}

/// Run `e` to `at`, ending a lap at every multiple of `slice` past
/// `origin` on the way.
pub fn run_sliced<E: Drive>(e: &mut E, laps: &mut Laps, origin: Time, slice: Dur, at: Time) {
    loop {
        let done = e.now().since(origin).as_micros() / slice.as_micros();
        let next = origin + slice.saturating_mul(done + 1);
        let stop = next.min(at);
        e.run_to(stop);
        if stop == next {
            laps.lap();
        }
        if stop == at {
            return;
        }
    }
}

/// Run `setup` `k` times on the plain engine, once on the traced one
/// (so that set-up spans belong to one build), dropping each world
/// before building the next so memory peaks once. Keeps the last world;
/// returns it with every set-up's laps.
pub fn repeated_setup<E: Drive, W>(
    k: usize,
    mut setup: impl FnMut(&mut Laps) -> W,
) -> (W, Vec<Vec<f64>>) {
    let k = if E::TRACED { 1 } else { k.max(1) };
    let mut all = Vec::with_capacity(k);
    let mut world = None;
    for _ in 0..k {
        drop(world.take());
        let mut laps = Laps::start();
        world = Some(setup(&mut laps));
        laps.lap();
        all.push(laps.laps);
    }
    (world.expect("at least one set-up"), all)
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Query-processor counters summed over a [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug, Default)]
struct QpTotals {
    rehash_puts: u64,
    rehash_bytes: u64,
    results_shipped: u64,
    result_bytes: u64,
    renewals: u64,
    rejected_installs: u64,
    shed_rows: u64,
}

impl QpTotals {
    fn of(s: &MetricsSnapshot) -> Self {
        QpTotals {
            rehash_puts: s.total(|q| q.rehash_puts),
            rehash_bytes: s.total(|q| q.rehash_bytes),
            results_shipped: s.total(|q| q.results_shipped),
            result_bytes: s.total(|q| q.result_bytes),
            renewals: s.total(|q| q.renewals),
            rejected_installs: s.rejected_installs(),
            shed_rows: s.shed_publishes(),
        }
    }

    fn since(self, o: QpTotals) -> Self {
        QpTotals {
            rehash_puts: self.rehash_puts - o.rehash_puts,
            rehash_bytes: self.rehash_bytes - o.rehash_bytes,
            results_shipped: self.results_shipped - o.results_shipped,
            result_bytes: self.result_bytes - o.result_bytes,
            renewals: self.renewals - o.renewals,
            rejected_installs: self.rejected_installs - o.rejected_installs,
            shed_rows: self.shed_rows - o.shed_rows,
        }
    }
}

fn meters(e: &impl PierEngine) -> Vec<Option<TrafficMeter>> {
    (0..e.node_count() as NodeId)
        .map(|id| e.node(id).map(|n| n.dht.meter))
        .collect()
}

/// Σ `store.len()` over live nodes.
fn stored_items(e: &impl PierEngine) -> usize {
    (0..e.node_count() as NodeId)
        .filter_map(|id| e.node(id))
        .map(|n| n.dht.store.len())
        .sum()
}

/// The timed phase of a run: its laps, cut every `slice` of virtual
/// time, plus the counters at its start.
pub struct Window {
    laps: Laps,
    origin: Time,
    slice: Dur,
    net0: NetStats,
    meters0: Vec<Option<TrafficMeter>>,
    events0: u64,
    qp0: QpTotals,
    items_peak: usize,
}

impl Window {
    /// Open the timed phase: read the counters, then start the clock.
    pub fn open<E: Drive>(e: &E, slice: Dur) -> Self {
        let qp0 = QpTotals::of(&snapshot(e));
        let mut w = Window {
            laps: Laps::start(),
            origin: e.now(),
            slice,
            net0: e.net_stats(),
            meters0: meters(e),
            events0: e.events_processed(),
            qp0,
            items_peak: 0,
        };
        w.sample(e);
        trace::reset_handlers();
        w.laps = Laps::start();
        w
    }

    /// Run the engine to `at` (lapping on the way).
    pub fn run_to<E: Drive>(&mut self, e: &mut E, at: Time) {
        run_sliced(e, &mut self.laps, self.origin, self.slice, at);
    }

    /// Stop the clock (for oracle work inside the timed phase).
    pub fn pause(&mut self) {
        self.laps.pause();
    }

    pub fn resume(&mut self) {
        self.laps.resume();
    }

    /// Sample storage occupancy (traced runs only: it walks every node).
    pub fn sample<E: Drive>(&mut self, e: &E) {
        if E::TRACED {
            self.laps.pause();
            self.items_peak = self.items_peak.max(stored_items(e));
            self.laps.resume();
        }
    }

    /// Close the timed phase: stop the clock, then read the counters.
    pub fn close<E: Drive>(mut self, e: &E) -> Phase {
        self.laps.lap();
        let rss_kb = peak_rss_kb();
        let trace = trace::snapshot();
        self.sample(e);
        let net = e.net_stats().since(&self.net0);
        let mut meter = TrafficMeter::default();
        for (id, m1) in meters(e).into_iter().enumerate() {
            if let (Some(m1), Some(Some(m0))) = (m1, self.meters0.get(id)) {
                meter.merge(&m1.since(m0));
            }
        }
        let qp = QpTotals::of(&snapshot(e)).since(self.qp0);
        Phase {
            laps: self.laps.laps,
            rss_kb,
            nodes: e.node_count(),
            events: e.events_processed() - self.events0,
            net,
            meter,
            qp,
            items_peak: self.items_peak,
            trace,
            end: e.now(),
        }
    }
}

/// Everything the timed phase left behind.
pub struct Phase {
    /// Wall time of the timed phase, lap by lap.
    pub laps: Vec<f64>,
    rss_kb: u64,
    nodes: usize,
    events: u64,
    net: NetStats,
    meter: TrafficMeter,
    qp: QpTotals,
    items_peak: usize,
    trace: Tracer,
    end: Time,
}

/// Oracle tallies: operations checked and operations that failed, with
/// a description of the first few failures.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Oracle {
    /// Count `n` operations of which `bad` failed.
    pub fn check(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Count one operation that must satisfy `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check(1, u64::from(!ok), what);
    }
}

/// Multiset difference in both directions: `(missing, extra)` rows.
pub fn row_diff(expected: &[pier_core::Tuple], got: &[pier_core::Tuple]) -> (u64, u64) {
    use std::collections::HashMap;
    let mut m: HashMap<String, i64> = HashMap::new();
    for r in expected {
        *m.entry(r.to_string()).or_default() += 1;
    }
    for r in got {
        *m.entry(r.to_string()).or_default() -= 1;
    }
    let missing = m.values().filter(|&&c| c > 0).map(|&c| c as u64).sum();
    let extra = m.values().filter(|&&c| c < 0).map(|&c| (-c) as u64).sum();
    (missing, extra)
}

/// The result of one run of one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Laps of every set-up run in this process.
    pub setup_laps: Vec<Vec<f64>>,
    pub phase: Phase,
    pub min_recall: f64,
    pub oracle: Oracle,
    /// Virtual seconds from submit (or epoch boundary) to each result
    /// row's arrival at the initiator.
    pub latencies: Vec<f64>,
    /// Hash of every result row logged at node 0, with arrival times.
    pub rows_hash: u64,
}

/// Every virtual time here is a sum of 100 ms full-mesh hop latencies
/// and timer periods on the same grid.
const LATENCY_GRID_S: f64 = 0.1;

/// Percentile of grid-valued samples, interpolated within the grid cell
/// that holds the rank (the grouped-data quantile): a sample `v` stands
/// for the cell `[v - grid/2, v + grid/2)`. Unlike a nearest-rank pick,
/// it moves smoothly with the distribution instead of jumping a whole
/// 100 ms cell when a few samples change sides.
fn grid_percentile(samples: &[f64], p: f64) -> f64 {
    let mut cells: std::collections::BTreeMap<i64, u64> = std::collections::BTreeMap::new();
    for v in samples {
        *cells
            .entry((v / LATENCY_GRID_S).round() as i64)
            .or_default() += 1;
    }
    let target = p / 100.0 * samples.len() as f64;
    let mut below = 0.0;
    let mut last = 0.0;
    for (&cell, &count) in &cells {
        let lower = (cell as f64 - 0.5) * LATENCY_GRID_S;
        if below + count as f64 >= target {
            return lower + (target - below) / count as f64 * LATENCY_GRID_S;
        }
        below += count as f64;
        last = lower + LATENCY_GRID_S;
    }
    last
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it (the median when there are too few samples for any).
fn tail_pct(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

const MB: f64 = 1e6;

impl Outcome {
    /// Every deterministic quantity of the run, as one string: equal
    /// between the traced and untraced engine, and between repeats.
    pub fn fingerprint(&self) -> String {
        let p = &self.phase;
        let m = &p.meter;
        format!(
            "events={} net.messages={} net.bytes={} net.dropped={} inbound={:016x} \
             meter={}/{}/{}/{}/{} rows={:016x} end_us={} attempted={} failed={} recall={:.6}",
            p.events,
            p.net.messages,
            p.net.bytes,
            p.net.dropped_to_failed,
            fnv(p.net.inbound_bytes.iter().flat_map(|b| b.to_le_bytes())),
            m.maintenance,
            m.lookup,
            m.mcast,
            m.data,
            m.replication,
            self.rows_hash,
            p.end.since(Time::ZERO).as_micros(),
            self.oracle.attempted,
            self.oracle.failed,
            self.min_recall,
        )
    }

    /// End-to-end metrics as `(name, value, unit)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let p = &self.phase;
        let lat = &self.latencies;
        let (p50, tail) = if lat.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (
                grid_percentile(lat, 50.0),
                grid_percentile(lat, tail_pct(lat.len())),
            )
        };
        let query_bytes = p.meter.query_traffic() + p.qp.result_bytes;
        let success = (self.oracle.attempted - self.oracle.failed) as f64
            / self.oracle.attempted.max(1) as f64;
        let mut setups: Vec<f64> = self.setup_laps.iter().map(|l| l.iter().sum()).collect();
        vec![
            ("setup_s", median(&mut setups), "s"),
            ("wall_s", p.laps.iter().sum(), "s"),
            ("peak_rss_mb", p.rss_kb as f64 / 1024.0, "MB"),
            ("min_recall", self.min_recall, "ratio"),
            ("success_share", success, "ratio"),
            ("result_latency_p50_s", p50, "virtual_s"),
            ("result_latency_tail_s", tail, "virtual_s"),
            ("result_samples", lat.len() as f64, "count"),
            ("query_mb", query_bytes as f64 / MB, "MB"),
            ("net_mb", p.net.bytes as f64 / MB, "MB"),
            ("max_inbound_mb", p.net.max_inbound() as f64 / MB, "MB"),
        ]
    }

    /// Per-layer metrics of a traced run as `(name, value, unit)`.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let p = &self.phase;
        let t = &p.trace;
        let per = |busy: f64, n: u64| if n == 0 { 0.0 } else { busy * 1e9 / n as f64 };
        let span_us = |name: &str| {
            let (c, s) = t.span(name);
            if c == 0 {
                0.0
            } else {
                s * 1e6 / c as f64
            }
        };
        let deliveries: u64 = [
            Kind::Lookup,
            Kind::LookupReply,
            Kind::Mcast,
            Kind::Maint,
            Kind::Data,
            Kind::Repl,
            Kind::Result,
            Kind::AggUp,
        ]
        .iter()
        .map(|&k| t.calls(k))
        .sum();
        let timers = t.calls(Kind::Tick) + t.calls(Kind::QpTimer);
        let self_s = t.run_s() - t.handler_busy_s();
        let lookups = t.calls(Kind::LookupReply);
        let hops = t.calls(Kind::Lookup);
        let data_msgs = t.calls(Kind::Data) + lookups;
        let data_busy = t.busy_s(Kind::Data) + t.busy_s(Kind::LookupReply);
        let m = &p.meter;
        vec![
            ("dht.can.build_s", t.span("dht.can.build").1, "s"),
            ("workload.gen_s", t.span("workload.gen").1, "s"),
            ("qp.publish_s", t.span("qp.publish").1, "s"),
            ("metrics.snapshot_s", t.span("metrics.snapshot").1, "s"),
            ("simnet.events", p.events as f64, "count"),
            ("simnet.timer_events", timers as f64, "count"),
            ("simnet.deliveries", deliveries as f64, "count"),
            ("simnet.run_s", t.run_s(), "s"),
            ("simnet.self_s", self_s, "s"),
            ("simnet.ns_per_event", per(self_s, p.events), "ns"),
            ("dht.tick.calls", t.calls(Kind::Tick) as f64, "count"),
            ("dht.tick.busy_s", t.busy_s(Kind::Tick), "s"),
            (
                "dht.tick.ns_per_call",
                per(t.busy_s(Kind::Tick), t.calls(Kind::Tick)),
                "ns",
            ),
            ("dht.can.lookups", lookups as f64, "count"),
            (
                "dht.can.hops_per_lookup",
                if lookups == 0 {
                    0.0
                } else {
                    hops as f64 / lookups as f64
                },
                "hops",
            ),
            ("dht.can.route_busy_s", t.busy_s(Kind::Lookup), "s"),
            (
                "dht.can.ns_per_hop",
                per(t.busy_s(Kind::Lookup), hops),
                "ns",
            ),
            ("dht.can.mcast_msgs", t.calls(Kind::Mcast) as f64, "count"),
            ("dht.can.mcast_busy_s", t.busy_s(Kind::Mcast), "s"),
            ("dht.can.maint_msgs", t.calls(Kind::Maint) as f64, "count"),
            ("dht.can.maint_busy_s", t.busy_s(Kind::Maint), "s"),
            ("dht.data.msgs", data_msgs as f64, "count"),
            ("dht.data.busy_s", data_busy, "s"),
            ("dht.data.ns_per_msg", per(data_busy, data_msgs), "ns"),
            ("dht.repl.msgs", t.calls(Kind::Repl) as f64, "count"),
            ("dht.repl.busy_s", t.busy_s(Kind::Repl), "s"),
            ("dht.storage.items_peak", p.items_peak as f64, "count"),
            (
                "dht.storage.items_per_node_peak",
                p.items_peak as f64 / p.nodes.max(1) as f64,
                "count",
            ),
            ("qp.timer.calls", t.calls(Kind::QpTimer) as f64, "count"),
            ("qp.timer.busy_s", t.busy_s(Kind::QpTimer), "s"),
            ("qp.result.msgs", t.calls(Kind::Result) as f64, "count"),
            ("qp.result.busy_s", t.busy_s(Kind::Result), "s"),
            ("qp.aggup.msgs", t.calls(Kind::AggUp) as f64, "count"),
            ("qp.aggup.busy_s", t.busy_s(Kind::AggUp), "s"),
            ("qp.rehash_puts", p.qp.rehash_puts as f64, "count"),
            ("qp.rehash_mb", p.qp.rehash_bytes as f64 / MB, "MB"),
            ("qp.results_shipped", p.qp.results_shipped as f64, "count"),
            ("qp.renewals", p.qp.renewals as f64, "count"),
            ("sql.parse_us", span_us("sql.parse"), "us"),
            ("tenant.admit_us", span_us("tenant.admit"), "us"),
            (
                "tenant.rejected_installs",
                p.qp.rejected_installs as f64,
                "count",
            ),
            ("tenant.shed_rows", p.qp.shed_rows as f64, "count"),
            ("traffic.maintenance_mb", m.maintenance as f64 / MB, "MB"),
            ("traffic.lookup_mb", m.lookup as f64 / MB, "MB"),
            ("traffic.mcast_mb", m.mcast as f64 / MB, "MB"),
            ("traffic.data_mb", m.data as f64 / MB, "MB"),
            ("traffic.replication_mb", m.replication as f64 / MB, "MB"),
            ("net.messages", p.net.messages as f64, "count"),
            (
                "net.dropped_to_failed",
                p.net.dropped_to_failed as f64,
                "count",
            ),
            (
                "mem.rss_kb_per_node",
                p.rss_kb as f64 / p.nodes.max(1) as f64,
                "KB",
            ),
        ]
    }

    /// One JSON object with everything above (the runner's input).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"attempted\": {}, \
             \"failed\": {}, \"fingerprint\": \"{}\", \"notes\": [{}], \"end_to_end\": {{",
            self.workload,
            self.seed,
            self.traced,
            self.oracle.attempted,
            self.oracle.failed,
            self.fingerprint(),
            self.oracle
                .notes
                .iter()
                .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "'")))
                .collect::<Vec<_>>()
                .join(", "),
        );
        write_metrics(&mut out, &self.end_to_end());
        let laps = |l: &[f64]| {
            l.iter()
                .map(|x| format!("{x:.9}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = write!(
            out,
            "}}, \"wall_laps\": [{}], \"setup_laps\": [{}], \"per_layer\": {{",
            laps(&self.phase.laps),
            self.setup_laps
                .iter()
                .map(|l| format!("[{}]", laps(l)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        if self.traced {
            write_metrics(&mut out, &self.per_layer());
        }
        out.push_str("}}");
        out
    }
}

fn write_metrics(out: &mut String, metrics: &[(&str, f64, &str)]) {
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN: an undefined metric is null.
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
}

/// FNV-1a over a byte stream.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Hash of every result row logged at `node`, in log order with times.
pub fn results_hash(node: &PierNode) -> u64 {
    let mut s = String::new();
    for (qid, rows) in &node.results {
        for (at, row) in rows {
            let _ = writeln!(s, "{qid} {} {row}", at.since(Time::ZERO).as_micros());
        }
    }
    fnv(s.into_bytes())
}

/// This process's peak resident set (`VmHWM`), in KB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::Tuple;

    #[test]
    fn grid_percentile_interpolates_within_the_cell() {
        // Ten samples in the 1.0 s cell: the median sits mid-cell.
        let v = vec![1.0; 10];
        assert!((grid_percentile(&v, 50.0) - 1.0).abs() < 1e-9);
        // Shifting two samples up one cell moves the median a little,
        // not by a whole 100 ms cell.
        let mut w = vec![1.0; 8];
        w.extend([1.1, 1.1]);
        let p = grid_percentile(&w, 50.0);
        assert!(p > 0.95 && p < 1.05, "{p}");
        assert!(grid_percentile(&w, 100.0) <= 1.15 + 1e-9);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_pct(5), 50.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(1_000), 99.0);
        assert_eq!(tail_pct(100_000), 99.99);
    }

    #[test]
    fn row_diff_counts_missing_and_extra_rows() {
        let t = |k: i64| Tuple::new(vec![pier_core::Value::I64(k)]);
        let (missing, extra) = row_diff(&[t(1), t(2), t(2)], &[t(2), t(3), t(3)]);
        assert_eq!((missing, extra), (2, 2));
    }

    #[test]
    fn laps_exclude_paused_time() {
        let mut laps = Laps::start();
        laps.pause();
        std::thread::sleep(Duration::from_millis(20));
        laps.resume();
        laps.lap();
        assert_eq!(laps.laps.len(), 1);
        assert!(laps.laps[0] < 0.015, "{}", laps.laps[0]);
    }
}
