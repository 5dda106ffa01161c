//! Every metric the benchmark reports, and how each is computed from the
//! measured runs. `METRICS.md` documents them; `BENCHMARK.json` lists them
//! and a test keeps the three in step.

use crate::measure::Measured;
use crate::workload::{quantile, Iteration, Workload};
use sp_am::AmStats;
use sp_trace::{Kind, Metrics, Record};
use std::collections::BTreeMap;

/// A metric's name, unit and which direction is better.
pub type Def = (&'static str, &'static str, &'static str);

/// Reported with `--trace 0`: what a user of the simulator sees.
pub const END_TO_END: &[Def] = &[
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Reported with `--trace 1`: virtual-time results and single layers.
pub const PER_LAYER: &[Def] = &[
    ("vt_p50_us", "us", "lower"),
    ("vt_p99_us", "us", "lower"),
    ("vt_mb_s", "MB/s", "higher"),
    ("vt_end_ms", "ms", "lower"),
    ("ops_failed_share", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.vcsw_per_event", "count", "lower"),
    ("sim.ivcsw_per_event", "count", "lower"),
    ("sim.sys_cpu_share", "ratio", "lower"),
    ("sim.os_threads", "count", "lower"),
    ("sim.wakes_coalesced", "count", "higher"),
    ("sim.sync_events", "count", "lower"),
    ("sim.windows", "count", "lower"),
    ("sim.sync_ratio", "ratio", "lower"),
    ("sim.window_util_pct", "%", "higher"),
    ("sim.event_imbalance", "ratio", "lower"),
    ("sim.advance_fastpath_share", "ratio", "higher"),
    ("sim.hot_event_share", "ratio", "higher"),
    ("switch.packets", "count", "lower"),
    ("switch.hops_per_packet", "count", "lower"),
    ("switch.wire_mb", "MB", "lower"),
    ("switch.dropped", "count", "lower"),
    ("switch.transit_host_ns", "ns", "lower"),
    ("switch.hop_us_p50", "us", "lower"),
    ("switch.hop_us_p99", "us", "lower"),
    ("switch.backlog_us_p99", "us", "lower"),
    ("switch.link_busy_pct_max", "%", "lower"),
    ("adapter.fifo_drops", "count", "lower"),
    ("adapter.recv_hwm", "count", "lower"),
    ("adapter.doorbells_per_packet", "ratio", "lower"),
    ("adapter.lazy_pops_per_packet", "ratio", "lower"),
    ("adapter.fw_send_us_mean", "us", "lower"),
    ("adapter.fw_recv_us_mean", "us", "lower"),
    ("adapter.poll_empty_share", "ratio", "lower"),
    ("am.requests", "count", "lower"),
    ("am.stores", "count", "lower"),
    ("am.gets", "count", "lower"),
    ("am.polls", "count", "lower"),
    ("am.packets_sent", "count", "lower"),
    ("am.retransmitted", "count", "lower"),
    ("am.controls_received", "count", "lower"),
    ("am.explicit_acks", "count", "lower"),
    ("am.nacks_sent", "count", "lower"),
    ("am.probes_sent", "count", "lower"),
    ("am.dup_dropped", "count", "lower"),
    ("am.ooo_dropped", "count", "lower"),
    ("am.useful_share", "ratio", "higher"),
    ("am.store_mb_s", "MB/s", "higher"),
    ("am.get_mb_s", "MB/s", "higher"),
    ("am.request_us_mean", "us", "lower"),
    ("am.dispatch_us_mean", "us", "lower"),
    ("am.poll_us_mean", "us", "lower"),
    ("nas.checksum_ok", "bool", "higher"),
    ("traffic.flows", "count", "higher"),
    ("traffic.offered_mb_s", "MB/s", "higher"),
    ("traffic.generate_host_ms", "ms", "lower"),
    ("traffic.issue_late_us_p99", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.records_lost", "count", "lower"),
    ("machine.rtt_err_pct", "%", "lower"),
    ("machine.bw_err_pct", "%", "lower"),
];

/// Value of a metric the workload does not exercise, or whose layer its
/// public API does not expose.
pub const NOT_MEASURED: f64 = -1.0;

/// The paper's one-word AM round trip, µs (§2.3).
pub const PAPER_RTT_US: f64 = 51.0;
/// The paper's asymptotic AM store bandwidth r∞, MB/s (§2.4).
pub const PAPER_BW_MB_S: f64 = 34.3;

/// Reads one counter out of a node's `AmStats`.
type AmField = fn(&AmStats) -> u64;

/// The `am` rows that are plain sums of one `AmStats` field over nodes.
const AM_COUNTERS: [(&str, AmField); 12] = [
    ("am.requests", |s| s.requests_sent),
    ("am.stores", |s| s.stores),
    ("am.gets", |s| s.gets),
    ("am.polls", |s| s.polls),
    ("am.packets_sent", |s| s.packets_sent),
    ("am.retransmitted", |s| s.packets_retransmitted),
    ("am.controls_received", |s| s.controls_received),
    ("am.explicit_acks", |s| s.explicit_acks_sent),
    ("am.nacks_sent", |s| s.nacks_sent),
    ("am.probes_sent", |s| s.probes_sent),
    ("am.dup_dropped", |s| s.dup_dropped),
    ("am.ooo_dropped", |s| s.ooo_dropped),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return NOT_MEASURED;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Payload rate of `bytes` moved in `ns` of virtual time, MB/s.
fn mb_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return NOT_MEASURED;
    }
    bytes as f64 * 1e3 / ns as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end metrics of an untraced measurement.
pub fn end_to_end(m: &Measured) -> Values {
    let it = m.timed();
    let mut v = Values::new();
    v.insert(
        "wall_s",
        median(it.iter().map(|i| i.wall.as_secs_f64()).collect()),
    );
    v.insert(
        "setup_s",
        median(m.setups.iter().map(|d| d.as_secs_f64()).collect()),
    );
    v.insert(
        "cpu_s",
        median(it.iter().map(|i| i.usage.cpu().as_secs_f64()).collect()),
    );
    v.insert("peak_rss_mb", m.peak_rss_mb);
    v
}

/// The per-layer metrics: host counters from the untraced measurement
/// `m`, span statistics from the traced run `traced` (absent where the
/// workload cannot be traced), and the host cost of replaying the traced
/// packet stream through a fresh switch, ns per transit.
pub fn per_layer(
    workload: Workload,
    m: &Measured,
    traced: Option<&Iteration>,
    transit_ns: Option<f64>,
) -> Values {
    let first = &m.iters[0];
    let virt = &first.virt;
    let events = virt.events.max(1) as f64;
    let timed = m.timed();
    let per_iter = |f: &dyn Fn(&Iteration) -> f64| median(timed.iter().map(|&i| f(i)).collect());
    let mut v = Values::new();
    let mut put = |name: &'static str, value: f64| {
        v.insert(
            name,
            if value.is_finite() {
                value
            } else {
                NOT_MEASURED
            },
        );
    };

    let has_lat = !virt.lat_ns.is_empty();
    let q = |p: f64| {
        if has_lat {
            us(quantile(&virt.lat_ns, p))
        } else {
            NOT_MEASURED
        }
    };
    put("vt_p50_us", q(0.5));
    put("vt_p99_us", q(0.99));
    put(
        "vt_mb_s",
        virt.payload.map_or(NOT_MEASURED, |(b, ns)| mb_s(b, ns)),
    );
    put("vt_end_ms", virt.completion_ns as f64 / 1e6);
    put(
        "ops_failed_share",
        ratio(m.failed as f64, m.attempted as f64),
    );

    put("sim.events", virt.events as f64);
    put(
        "sim.host_ns_per_event",
        per_iter(&|i| i.wall.as_nanos() as f64 / events),
    );
    put(
        "sim.vcsw_per_event",
        per_iter(&|i| i.usage.vcsw as f64 / events),
    );
    put(
        "sim.ivcsw_per_event",
        per_iter(&|i| i.usage.ivcsw as f64 / events),
    );
    put(
        "sim.sys_cpu_share",
        per_iter(&|i| ratio(i.usage.sys.as_secs_f64(), i.usage.cpu().as_secs_f64())),
    );
    put(
        "sim.os_threads",
        first.os_threads.map_or(NOT_MEASURED, |t| t as f64),
    );
    put(
        "sim.wakes_coalesced",
        virt.wakes_coalesced.map_or(NOT_MEASURED, |w| w as f64),
    );
    put("sim.sync_events", virt.sync_events as f64);
    put("sim.windows", virt.windows as f64);
    let prof = virt.profile.as_ref();
    put("sim.sync_ratio", prof.map_or(0.0, |p| p.sync_ratio()));
    put(
        "sim.window_util_pct",
        prof.map_or(0.0, |p| {
            let n = p.num_shards();
            100.0 * (0..n).map(|s| p.window_utilization(s)).sum::<f64>() / n.max(1) as f64
        }),
    );
    put(
        "sim.event_imbalance",
        prof.map_or(0.0, |p| p.event_imbalance()),
    );

    match &virt.hw {
        Some(hw) => {
            let sw = &hw.switch;
            put("switch.packets", sw.delivered as f64);
            put(
                "switch.hops_per_packet",
                ratio(sw.hops as f64, sw.delivered as f64),
            );
            put("switch.wire_mb", sw.wire_bytes as f64 / 1e6);
            put("switch.dropped", sw.dropped as f64);
            let sum = |f: &dyn Fn(&sp_adapter::AdapterStats) -> u64| -> f64 {
                hw.adapters.iter().map(f).sum::<u64>() as f64
            };
            put("adapter.fifo_drops", sum(&|a| a.dropped_overflow));
            let hwm = hw.adapters.iter().map(|a| a.recv_high_water).max();
            put("adapter.recv_hwm", hwm.unwrap_or(0) as f64);
            put(
                "adapter.doorbells_per_packet",
                ratio(sum(&|a| a.doorbells), sum(&|a| a.sent)),
            );
            put(
                "adapter.lazy_pops_per_packet",
                ratio(sum(&|a| a.lazy_pops), sum(&|a| a.received)),
            );
        }
        None => {
            for name in [
                "switch.packets",
                "switch.hops_per_packet",
                "switch.wire_mb",
                "switch.dropped",
                "adapter.fifo_drops",
                "adapter.recv_hwm",
                "adapter.doorbells_per_packet",
                "adapter.lazy_pops_per_packet",
            ] {
                put(name, NOT_MEASURED);
            }
        }
    }
    put("switch.transit_host_ns", transit_ns.unwrap_or(NOT_MEASURED));

    match &virt.am {
        Some(stats) => {
            let total = |f: AmField| stats.iter().map(f).sum::<u64>() as f64;
            for (name, f) in AM_COUNTERS {
                put(name, total(f));
            }
            let useful = total(|s| s.shorts_delivered) + total(|s| s.data_packets_delivered);
            put(
                "am.useful_share",
                ratio(useful, total(|s| s.packets_received)),
            );
        }
        None => {
            for (name, _) in AM_COUNTERS {
                put(name, NOT_MEASURED);
            }
            put("am.useful_share", NOT_MEASURED);
        }
    }
    let (store_b, store_ns) = virt.store;
    let (get_b, get_ns) = virt.get;
    put("am.store_mb_s", mb_s(store_b, store_ns));
    put("am.get_mb_s", mb_s(get_b, get_ns));

    put(
        "nas.checksum_ok",
        match virt.checksum {
            Some(_) if m.failed == 0 => 1.0,
            Some(_) => 0.0,
            None => NOT_MEASURED,
        },
    );

    match virt.traffic {
        Some((flows, offered)) => {
            put("traffic.flows", flows as f64);
            put("traffic.offered_mb_s", offered);
            put(
                "traffic.generate_host_ms",
                per_iter(&|i| i.generate.map_or(NOT_MEASURED, |g| g.as_secs_f64() * 1e3)),
            );
            put(
                "traffic.issue_late_us_p99",
                us(quantile(&virt.issue_late_ns, 0.99)),
            );
        }
        None => {
            for name in [
                "traffic.flows",
                "traffic.offered_mb_s",
                "traffic.generate_host_ms",
                "traffic.issue_late_us_p99",
            ] {
                put(name, NOT_MEASURED);
            }
        }
    }

    let rtt_err = match workload {
        Workload::Pingpong if has_lat => {
            (us(quantile(&virt.lat_ns, 0.5)) - PAPER_RTT_US).abs() / PAPER_RTT_US * 100.0
        }
        _ => NOT_MEASURED,
    };
    put("machine.rtt_err_pct", rtt_err);
    let bw_err = match workload {
        Workload::Bulk if store_ns > 0 => {
            (mb_s(store_b, store_ns) - PAPER_BW_MB_S).abs() / PAPER_BW_MB_S * 100.0
        }
        _ => NOT_MEASURED,
    };
    put("machine.bw_err_pct", bw_err);

    let wall = per_iter(&|i| i.wall.as_secs_f64());
    for (name, value) in traced_metrics(traced, wall) {
        put(name, value);
    }
    v
}

/// Sorted durations (or counter values, with `arg`) of every record of
/// `kind`.
fn sorted(records: &[Record], kind: Kind, arg: bool) -> Vec<u64> {
    let mut v: Vec<u64> = records
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| if arg { r.arg } else { r.dur })
        .collect();
    v.sort_unstable();
    v
}

/// The rows derived from the traced run.
fn traced_metrics(traced: Option<&Iteration>, untraced_wall_s: f64) -> Vec<(&'static str, f64)> {
    let names = [
        "sim.advance_fastpath_share",
        "sim.hot_event_share",
        "switch.hop_us_p50",
        "switch.hop_us_p99",
        "switch.backlog_us_p99",
        "switch.link_busy_pct_max",
        "adapter.fw_send_us_mean",
        "adapter.fw_recv_us_mean",
        "adapter.poll_empty_share",
        "am.request_us_mean",
        "am.dispatch_us_mean",
        "am.poll_us_mean",
        "trace.overhead_ratio",
        "trace.records",
        "trace.records_lost",
    ];
    let Some((it, (records, lost))) = traced.and_then(|i| i.trace.as_ref().map(|t| (i, t))) else {
        return names.iter().map(|&n| (n, NOT_MEASURED)).collect();
    };
    let agg = Metrics::aggregate_with_dropped(records, *lost);
    let span_mean = |k: Kind| agg.spans.get(&k).map_or(NOT_MEASURED, |h| us(h.mean_ns()));
    let span_count = |k: Kind| agg.spans.get(&k).map_or(0, |h| h.count()) as f64;
    let count = |k: Kind| agg.counts.get(&k).copied().unwrap_or(0) as f64;

    let advances: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == Kind::NodeAdvance)
        .collect();
    let fast = advances.iter().filter(|r| r.arg == 1).count() as f64;
    let dispatches = count(Kind::EngineWake) + count(Kind::EngineCall) + count(Kind::EngineHot);
    let hops = sorted(records, Kind::SwitchHop, false);
    let backlog = sorted(records, Kind::LinkBacklog, true);
    let busy_max = agg
        .link_busy
        .keys()
        .map(|&t| agg.link_utilization(t))
        .fold(0.0, f64::max);
    let polls = span_count(Kind::HostPollEmpty) + span_count(Kind::HostPollHit);
    vec![
        (
            "sim.advance_fastpath_share",
            ratio(fast, advances.len() as f64),
        ),
        (
            "sim.hot_event_share",
            ratio(count(Kind::EngineHot), dispatches),
        ),
        ("switch.hop_us_p50", us(quantile(&hops, 0.5))),
        ("switch.hop_us_p99", us(quantile(&hops, 0.99))),
        ("switch.backlog_us_p99", us(quantile(&backlog, 0.99))),
        ("switch.link_busy_pct_max", 100.0 * busy_max),
        ("adapter.fw_send_us_mean", span_mean(Kind::FwSend)),
        ("adapter.fw_recv_us_mean", span_mean(Kind::FwRecv)),
        (
            "adapter.poll_empty_share",
            ratio(span_count(Kind::HostPollEmpty), polls),
        ),
        ("am.request_us_mean", span_mean(Kind::AmRequest)),
        ("am.dispatch_us_mean", span_mean(Kind::AmDispatch)),
        ("am.poll_us_mean", span_mean(Kind::AmPoll)),
        (
            "trace.overhead_ratio",
            ratio(it.wall.as_secs_f64(), untraced_wall_s),
        ),
        ("trace.records", records.len() as f64),
        ("trace.records_lost", *lost as f64),
    ]
}
