//! E3 — Table 2 / §3.2: the client event message — codec round-trip,
//! schema evolution, and encoded size vs the legacy formats.

use uli_core::client_event::ClientEvent;
use uli_core::legacy::LegacyCategory;
use uli_thrift::{CompactReader, ThriftRecord};
use uli_workload::{generate_day, legacy_category_for, WorkloadConfig};

use crate::cells;
use crate::harness::Table;

/// Runs the experiment.
pub fn run() -> String {
    let day = generate_day(
        &WorkloadConfig {
            users: 200,
            ..Default::default()
        },
        0,
    );
    let mut out = String::from(
        "E3 — client event codec (Table 2, §3.2)\n\
         every event carries initiator, name, user_id, session_id, ip,\n\
         timestamp, details — with identical semantics everywhere.\n\n",
    );

    // Round-trip every event.
    let encoded: Vec<Vec<u8>> = day.events.iter().map(|e| e.to_bytes()).collect();
    let decoded: Vec<ClientEvent> = encoded
        .iter()
        .map(|b| ClientEvent::from_bytes(b).expect("own encoding decodes"))
        .collect();
    assert_eq!(
        decoded, day.events,
        "lossless round trip over the whole day"
    );
    let n = day.events.len() as f64;
    let thrift_bytes: usize = encoded.iter().map(Vec::len).sum();
    out.push_str(&format!(
        "{} events round-tripped losslessly\n\n",
        day.events.len()
    ));

    // Size comparison: unified Thrift vs what each legacy format would use.
    let mut sizes = Table::new(&["format", "total KB", "bytes/event"]);
    sizes.row(cells![
        "unified thrift (client_events)",
        thrift_bytes / 1024,
        format!("{:.1}", thrift_bytes as f64 / n)
    ]);
    for cat in LegacyCategory::ALL {
        let events: Vec<&ClientEvent> = day
            .events
            .iter()
            .filter(|e| legacy_category_for(e) == cat)
            .collect();
        if events.is_empty() {
            continue;
        }
        let bytes: usize = events.iter().map(|e| cat.encode(e).len()).sum();
        sizes.row(cells![
            format!("legacy {} ({:?})", cat.category_name(), cat),
            bytes / 1024,
            format!("{:.1}", bytes as f64 / events.len() as f64)
        ]);
    }
    out.push_str(&sizes.render());
    out.push_str(
        "\n(unified logs are more verbose than terse TSV — the §4.1 cost the\n\
         session sequences repay — but carry every common field in every\n\
         message, unlike the legacy formats.)\n\n",
    );

    // Schema evolution: a future writer adds field 9; today's reader skips.
    let sample = &day.events[0];
    let mut w = uli_thrift::CompactWriter::new();
    w.struct_begin();
    w.field_i8(1, sample.initiator.code());
    w.field_string(2, sample.name.as_str());
    w.field_i64(3, sample.user_id);
    w.field_string(4, &sample.session_id);
    w.field_string(5, &sample.ip);
    w.field_i64(6, sample.timestamp.millis());
    w.field_string_map(7, &sample.details);
    w.field_string(9, "added-by-a-2013-client");
    w.struct_end();
    let bytes = w.into_bytes();
    let mut r = CompactReader::new(&bytes);
    let evolved = ClientEvent::read(&mut r).expect("old reader tolerates new fields");
    assert_eq!(&evolved, sample);
    out.push_str(
        "schema evolution: message with an unknown field 9 decoded by the\n\
         current reader with no loss of the known fields (checked).\n",
    );
    out
}
