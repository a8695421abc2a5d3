//! E1 — Figure 1 / §2: the Scribe delivery pipeline under faults.
//!
//! Paper claim: "The entire pipeline is robust with respect to transient
//! failures — Scribe daemons discover alternative aggregators via ZooKeeper
//! upon aggregator failure, and aggregators buffer data on local disk in
//! case of HDFS outages." Hard crashes may lose unflushed data (Scribe is
//! not a database); the experiment quantifies the envelope.

use std::sync::Arc;

use uli_core::client_event::{ClientEvent, CLIENT_EVENTS_CATEGORY};
use uli_core::ClientEventLanding;
use uli_scribe::pipeline::PipelineConfig;
use uli_scribe::{LogEntry, ScribePipeline};
use uli_thrift::ThriftRecord;
use uli_workload::{generate_day, WorkloadConfig};

use crate::cells;
use crate::harness::Table;

/// Logs hour `hour` of `events` through `pipe`, built on `config` — each
/// event to a datacenter by user id and a host by arrival — and steps the
/// pipeline; then, with `faults`, applies the fault plan: an aggregator
/// crash at hour 6 and a staging outage in datacenter 1 over hours 12–13.
pub fn log_hour(
    pipe: &mut ScribePipeline,
    config: &PipelineConfig,
    events: &[ClientEvent],
    hour: u64,
    faults: bool,
) {
    let hour_events = events.iter().filter(|e| e.timestamp.hour_index() == hour);
    for (i, ev) in hour_events.enumerate() {
        let entry = LogEntry::new(CLIENT_EVENTS_CATEGORY, ev.to_bytes());
        pipe.log(
            (ev.user_id as usize) % config.datacenters,
            i % config.hosts_per_dc,
            entry,
        );
    }
    pipe.step();
    match (faults, hour) {
        (true, 6) => {
            pipe.crash_aggregator(0, 0);
            pipe.spawn_aggregator(0, 0);
            pipe.step();
        }
        (true, 12) => pipe.set_staging_available(1, false),
        (true, 14) => pipe.set_staging_available(1, true),
        _ => {}
    }
}

/// Drives one day through the pipeline, landing it columnar, with or
/// without the fault plan of [`log_hour`].
pub fn drive(faults: bool) -> ScribePipeline {
    let config = PipelineConfig {
        datacenters: 3,
        hosts_per_dc: 16,
        aggregators_per_dc: 4,
        records_per_file: 50_000,
        ..Default::default()
    };
    let day = generate_day(
        &WorkloadConfig {
            users: 300,
            ..Default::default()
        },
        0,
    );
    let mut pipe = ScribePipeline::new(config);
    pipe.set_columnar_landing(Arc::new(ClientEventLanding::default()));
    for hour in 0..24u64 {
        log_hour(&mut pipe, &config, &day.events, hour, faults);
        pipe.flush_hour(hour);
        pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour);
        let _ = pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour);
    }
    // Recovery sweep: flush buffers and move any deferred hours.
    pipe.flush_hour(23);
    for hour in 0..24u64 {
        pipe.seal_hour(CLIENT_EVENTS_CATEGORY, hour);
        let _ = pipe.move_hour(CLIENT_EVENTS_CATEGORY, hour);
    }
    pipe
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from(
        "E1 — Scribe pipeline robustness (Fig. 1, §2)\n\
         3 DCs x 16 hosts, 4 aggregators/DC; faults: 1 aggregator crash,\n\
         one 2-hour staging outage; hourly flush/seal/move.\n\n",
    );
    let mut table = Table::new(&[
        "scenario",
        "logged",
        "accepted",
        "flushed",
        "moved",
        "crash-lost",
        "host-buffered",
    ]);
    for (label, faults) in [("fault-free", false), ("with-faults", true)] {
        let pipe = drive(faults);
        let r = pipe.report();
        table.row(cells![
            label,
            r.logged,
            r.accepted,
            r.flushed,
            r.moved,
            r.lost_in_crashes,
            r.host_buffered
        ]);
        assert_eq!(
            r.moved + r.lost_in_crashes,
            r.logged,
            "conservation: moved + lost == logged"
        );
        if !faults {
            assert_eq!(r.lost_in_crashes, 0);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\ninvariant checked: moved + crash-lost == logged in both scenarios\n\
         (paper: robust to transient failures; hard crashes bound the loss\n\
         to entries accepted but not yet flushed).\n",
    );
    out
}
