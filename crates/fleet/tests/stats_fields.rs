//! Drift check for the stats field table in `docs/PROTOCOL.md`: the rows
//! between the `stats-field-table:begin/end` markers name exactly the
//! fields the five `stats_object!` declarations render, object by object.

use std::collections::BTreeSet;

use lca_fleet::router::FleetRollup;
use lca_fleet::Fleet;
use lca_serve::budget::{BudgetController, BudgetPolicyConfig};
use lca_serve::metrics::{
    GlobalMetrics, GlobalSnapshot, ReactorMetrics, SessionMetrics, SessionSnapshot,
};
use serde::Json;

const PROTOCOL: &str = include_str!("../../../docs/PROTOCOL.md");

/// The field names of a rendered object, in wire order.
fn keys(object: &Json) -> Vec<String> {
    match object {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn global() -> Json {
    GlobalMetrics::default().render(&GlobalSnapshot {
        backend_id: String::new(),
        queue_len: 0,
        draining: false,
        sessions: 0,
        registry_shards: 1,
        registry_shard_hits: vec![0],
        cache_total: lca_probe::CacheStats::default(),
    })
}

/// `(object, field)` for every field the declarations render.
fn rendered() -> BTreeSet<(String, String)> {
    let session = SessionSnapshot {
        cache: lca_probe::CacheStats::default(),
        uptime_s: 0.0,
    };
    // Rendering the rollup reads the fleet's counters; it never connects.
    let fleet = Fleet::new(vec!["127.0.0.1:1".to_owned()]);
    let objects = [
        ("global", global()),
        ("session", SessionMetrics::default().render(&session)),
        (
            "budget",
            BudgetController::new(BudgetPolicyConfig::default()).stats_json(),
        ),
        ("gateway", ReactorMetrics::default().render()),
        ("fleet", FleetRollup::default().render(&fleet)),
    ];
    let mut fields = BTreeSet::new();
    for (object, json) in &objects {
        for key in keys(json) {
            assert!(
                fields.insert((object.to_string(), key.clone())),
                "{object} renders `{key}` twice"
            );
        }
    }
    fields
}

/// `(object, field)` for every row of the fenced table in `doc`.
fn documented(doc: &str) -> BTreeSet<(String, String)> {
    let begin = doc
        .find("<!-- stats-field-table:begin -->")
        .expect("begin marker");
    let end = doc
        .find("<!-- stats-field-table:end -->")
        .expect("end marker");
    let mut fields = BTreeSet::new();
    for row in doc[begin..end].lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let field = cells[1].trim_matches('`');
        for object in cells[2].split(',').map(str::trim) {
            assert!(
                fields.insert((object.to_owned(), field.to_owned())),
                "`{field}` is listed twice under {object}"
            );
        }
    }
    fields
}

/// The table's disagreements with the declarations, as readable lines.
fn drift(doc: &str) -> Vec<String> {
    let rendered = rendered();
    let documented = documented(doc);
    let undocumented = rendered
        .difference(&documented)
        .map(|(o, f)| format!("{o} renders `{f}`, which the table does not list"));
    let unrendered = documented
        .difference(&rendered)
        .map(|(o, f)| format!("the table lists `{f}` under {o}, which it does not render"));
    undocumented.chain(unrendered).collect()
}

#[test]
fn protocol_stats_table_matches_the_declarations() {
    let drift = drift(PROTOCOL);
    assert!(
        drift.is_empty(),
        "docs/PROTOCOL.md drift:\n{}",
        drift.join("\n")
    );
}

#[test]
fn the_drift_check_sees_both_directions() {
    // A documented field that nothing renders.
    let extra = PROTOCOL.replace(
        "<!-- stats-field-table:end -->",
        "| `ghost_total` | global | never rendered |\n<!-- stats-field-table:end -->",
    );
    assert_eq!(
        drift(&extra),
        ["the table lists `ghost_total` under global, which it does not render"]
    );
    // A rendered field the table no longer lists.
    let missing = PROTOCOL.replace("| `refits` | budget | completed re-fits |\n", "");
    assert_eq!(
        drift(&missing),
        ["budget renders `refits`, which the table does not list"]
    );
}

#[test]
fn every_fleet_summed_field_is_a_backend_stats_field() {
    // The rollup sums each of its counters from the same-named field of
    // every backend's `stats` object; a name the backend does not render
    // would sum to a silent 0.
    let global = keys(&global());
    for key in FleetRollup::COUNTERS {
        assert!(
            global.iter().any(|k| k == key),
            "fleet sums `{key}`, which no backend renders"
        );
    }
}
