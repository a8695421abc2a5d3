//! Batch-engine reference answers for every serving-layer lookup.
//!
//! Each function here answers the same question a [`ServeHandle`] lookup
//! answers, but the honest batch way: a full [`Plan`] over the delivered
//! hour directories, run through the dataflow [`Engine`]. The serving
//! layer's contract is that its answers are byte-identical to these over
//! the same delivered hours — the equivalence suite and E22 pin it at
//! several worker counts — while decoding a small fraction of the bytes.
//!
//! [`ServeHandle`]: crate::ServeHandle

use std::sync::Arc;

use uli_core::client_event::CLIENT_EVENT_SCHEMA;
use uli_core::{
    ClientEvent, ClientEventLoader, EventDetails, EventInitiator, EventName, SessionRecord,
    Sessionizer, Timestamp,
};
use uli_dataflow::{Agg, DataflowResult, Engine, Expr, Parallelism, Plan, SortOrder, Tuple, Value};
use uli_warehouse::{HourlyPartition, Warehouse};

fn schema() -> Vec<String> {
    CLIENT_EVENT_SCHEMA.iter().map(|s| s.to_string()).collect()
}

/// One scan plan per hour directory that exists; missing hours (never
/// delivered, or a truncated day) contribute no plan — exactly the hours
/// the index treats as absent.
fn hour_plans(
    warehouse: &Warehouse,
    category: &str,
    hours: impl IntoIterator<Item = u64>,
) -> Vec<Plan> {
    hours
        .into_iter()
        .filter_map(|hour| {
            let dir = HourlyPartition::from_hour_index(category, hour).main_dir();
            warehouse
                .is_dir(&dir)
                .then(|| Plan::load(dir, Arc::new(ClientEventLoader), schema()))
        })
        .collect()
}

fn union_all(mut plans: Vec<Plan>) -> Option<Plan> {
    let first = if plans.is_empty() {
        return None;
    } else {
        plans.remove(0)
    };
    Some(if plans.is_empty() {
        first
    } else {
        first.union(plans)
    })
}

fn engine(warehouse: &Warehouse, workers: usize) -> Engine {
    Engine::new(warehouse.clone()).with_parallelism(Parallelism::fixed(workers))
}

/// The reference plan behind `user-events <user> <hour>`: a full scan of
/// the hour, filtered to the user. `None` when the hour never landed.
pub fn user_events_plan(
    warehouse: &Warehouse,
    category: &str,
    hour: u64,
    user: i64,
) -> Option<Plan> {
    let plan = union_all(hour_plans(warehouse, category, [hour]))?;
    Some(plan.filter(Expr::col(2).eq(Expr::lit(user))))
}

/// Batch answer to `user-events <user> <hour>`: [`user_events_plan`] run
/// through the engine.
pub fn batch_user_events(
    warehouse: &Warehouse,
    category: &str,
    hour: u64,
    user: i64,
    workers: usize,
) -> DataflowResult<Vec<Tuple>> {
    match user_events_plan(warehouse, category, hour, user) {
        Some(plan) => Ok(engine(warehouse, workers).run(&plan)?.rows),
        None => Ok(Vec::new()),
    }
}

/// Batch answer to `count <name>` over a span of hours: full scan,
/// filtered to the name, globally counted. One `[Int n]` row always, the
/// SQL `COUNT(*)`-over-empty convention the engine follows.
pub fn batch_count(
    warehouse: &Warehouse,
    category: &str,
    hours: impl IntoIterator<Item = u64>,
    name: &str,
    workers: usize,
) -> DataflowResult<Vec<Tuple>> {
    let Some(plan) = union_all(hour_plans(warehouse, category, hours)) else {
        return Ok(vec![vec![Value::Int(0)]]);
    };
    let plan = plan
        .filter(Expr::col(1).eq(Expr::lit(name)))
        .aggregate(vec![Agg::count()]);
    Ok(engine(warehouse, workers).run(&plan)?.rows)
}

/// Batch answer to `top-names <hour>`: group by name, count, order by
/// count descending then name ascending, limit `k`.
pub fn batch_top_names(
    warehouse: &Warehouse,
    category: &str,
    hour: u64,
    k: usize,
    workers: usize,
) -> DataflowResult<Vec<Tuple>> {
    let Some(plan) = union_all(hour_plans(warehouse, category, [hour])) else {
        return Ok(Vec::new());
    };
    let plan = plan
        .aggregate_by(vec![1], vec![Agg::count()])
        .order_by(vec![(1, SortOrder::Desc), (0, SortOrder::Asc)])
        .limit(k);
    Ok(engine(warehouse, workers).run(&plan)?.rows)
}

/// Batch answer to `sessions <user> [day]`: full scan of the day's
/// delivered hours, filtered to the user, sessionized with the same
/// [`Sessionizer`] the materializer uses.
pub fn batch_sessions(
    warehouse: &Warehouse,
    category: &str,
    day: u64,
    user: i64,
    workers: usize,
) -> DataflowResult<Vec<SessionRecord>> {
    let Some(plan) = union_all(hour_plans(warehouse, category, day * 24..(day + 1) * 24)) else {
        return Ok(Vec::new());
    };
    let plan = plan.filter(Expr::col(2).eq(Expr::lit(user)));
    let rows = engine(warehouse, workers).run(&plan)?.rows;
    let events: Vec<ClientEvent> = rows.into_iter().filter_map(tuple_event).collect();
    Ok(Sessionizer::new().sessionize(events))
}

/// Inverse of [`crate::handle::event_tuple`]: rebuilds the event struct
/// out of an engine row so batch results can feed the sessionizer. `None`
/// drops rows that are not loader-shaped client events.
pub fn tuple_event(tuple: Tuple) -> Option<ClientEvent> {
    let [initiator, name, user_id, session_id, ip, timestamp, details] =
        <[Value; 7]>::try_from(tuple).ok()?;
    let Value::Str(initiator) = initiator else {
        return None;
    };
    let initiator = initiator_from_str(&initiator)?;
    let Value::Str(name) = name else { return None };
    let name = EventName::parse(&name).ok()?;
    let Value::Int(user_id) = user_id else {
        return None;
    };
    let Value::Str(session_id) = session_id else {
        return None;
    };
    let Value::Str(ip) = ip else { return None };
    let Value::Int(millis) = timestamp else {
        return None;
    };
    let Value::Map(details) = details else {
        return None;
    };
    let details: EventDetails = details
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(s) => Some((k, s)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let mut ev = ClientEvent::new(initiator, name, user_id, session_id, ip, Timestamp(millis));
    ev.details = details;
    Some(ev)
}

/// Inverse of the initiator's `Display` rendering (`side:trigger`).
fn initiator_from_str(s: &str) -> Option<EventInitiator> {
    match s {
        "client:user" => Some(EventInitiator::CLIENT_USER),
        "client:app" => Some(EventInitiator::CLIENT_APP),
        "server:user" => Some(EventInitiator::SERVER_USER),
        "server:app" => Some(EventInitiator::SERVER_APP),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::event_tuple;

    #[test]
    fn tuple_event_inverts_event_tuple() {
        let mut ev = ClientEvent::new(
            EventInitiator::SERVER_APP,
            EventName::parse("web:home:timeline:tweet:avatar:click").unwrap(),
            42,
            "sess-1",
            "10.1.2.3",
            Timestamp(123_456),
        );
        ev.details.insert("k", "v");
        let back = tuple_event(event_tuple(ev.clone())).expect("round trip");
        assert_eq!(back, ev);
    }

    #[test]
    fn initiator_renderings_all_invert() {
        for init in [
            EventInitiator::CLIENT_USER,
            EventInitiator::CLIENT_APP,
            EventInitiator::SERVER_USER,
            EventInitiator::SERVER_APP,
        ] {
            assert_eq!(initiator_from_str(&init.to_string()), Some(init));
        }
        assert_eq!(initiator_from_str("martian:probe"), None);
    }

    #[test]
    fn missing_hours_answer_empty_but_count_keeps_its_row() {
        let wh = Warehouse::new();
        assert!(batch_user_events(&wh, "client_events", 3, 1, 1)
            .unwrap()
            .is_empty());
        assert!(batch_top_names(&wh, "client_events", 3, 5, 1)
            .unwrap()
            .is_empty());
        assert_eq!(
            batch_count(&wh, "client_events", 0..24, "a:b:c:d:e:f", 1).unwrap(),
            vec![vec![Value::Int(0)]]
        );
        assert!(batch_sessions(&wh, "client_events", 0, 1, 1)
            .unwrap()
            .is_empty());
    }
}
