//! Schema checks for the `hyde-bench-v4` document: a traced run's obs
//! section carries the phase rows, counter rows, percentiles and `hists`
//! families, and the validator accepts only the current schema tag.

use hyde_bench::perf::{run_bench, to_json, validate_json, SCHEMA};
use hyde_obs::json::{self, Json};

#[test]
fn traced_document_carries_obs_phases_counters_and_percentiles() {
    std::env::set_var("HYDE_THREADS", "1");
    let circuits = vec![hyde_circuits::rd73()];
    let budget = hyde_guard::Budget::unlimited();
    let run = run_bench("schema_compat", &circuits, 5, budget, true).expect("flow maps rd73");
    std::env::remove_var("HYDE_THREADS");

    let text = to_json(&run);
    validate_json(&text).expect("v4 document validates");
    let doc = json::parse(&text).expect("v4 document parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));

    let obs = doc.get("obs").expect("document has an obs section");
    let rows = |key: &str| obs.get(key).and_then(Json::as_arr).expect(key);
    let name_is = |row: &Json, name: &str| row.get("name").and_then(Json::as_str) == Some(name);
    let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_num).unwrap_or(0.0);

    let phases = rows("phases");
    assert!(
        phases
            .iter()
            .any(|p| name_is(p, "map.outputs") && num(p, "count") > 0.0),
        "phase rows: {phases:?}"
    );
    assert!(
        phases.iter().any(|p| p.get("p95_us").is_some()),
        "a traced run reports span percentiles"
    );
    let counters = rows("counters");
    assert!(
        counters
            .iter()
            .any(|c| name_is(c, "varpart.candidates") && num(c, "sum") > 0.0),
        "counter rows: {counters:?}"
    );
    assert!(
        obs.get("hists").and_then(Json::as_arr).is_some(),
        "the obs section has a hists array"
    );
}

#[test]
fn validator_accepts_only_the_current_schema() {
    let stub = |tag: &str| {
        format!(
            "{{\"schema\": \"{tag}\", \"name\": \"t\", \"k\": 5, \"threads\": 1, \
             \"circuits\": [{{\"name\": \"rd73\", \"inputs\": 7, \"outputs\": 3, \
             \"wall_ms\": 1.0, \"luts\": 6, \"depth\": 2}}], \
             \"totals\": {{\"wall_ms\": 1.0, \"luts\": 6}}}}"
        )
    };
    validate_json(&stub(SCHEMA)).unwrap_or_else(|e| panic!("{SCHEMA} rejected: {e}"));
    for tag in [
        "hyde-bench-v1",
        "hyde-bench-v2",
        "hyde-bench-v3",
        "hyde-bench-v99",
    ] {
        assert!(validate_json(&stub(tag)).is_err(), "{tag} accepted");
    }
}
