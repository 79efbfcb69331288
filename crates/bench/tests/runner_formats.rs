//! Integration coverage for `bench::runner`'s output formats: a tiny spec's result
//! must round-trip through text, CSV and JSON, and the JSON rendering must actually
//! *parse* as JSON (checked with the crate's [`Json`] parser) — not merely contain the
//! expected substrings.  Python's `json.load` in CI and in the benchmark script is the
//! independent check on the same artifacts.

use repro_bench::json::Json;
use repro_bench::runner::{ExperimentResult, ExperimentSpec, Format, RunConfig};
use repro_bench::{row, Scale};

/// The items of a JSON array (panics on any other value).
fn items(value: Option<&Json>) -> &[Json] {
    match value {
        Some(Json::Arr(items)) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// The tiny spec under test: fixed rows exercising every `Value` variant plus the
/// characters JSON and CSV must escape.
fn demo_spec() -> ExperimentSpec {
    ExperimentSpec {
        id: "format_roundtrip_demo",
        aliases: &[],
        title: "Format round-trip demo",
        columns: &["label", "count", "mean"],
        notes: &["note with \"quotes\" and a \\ backslash"],
        run: |_cfg| {
            vec![
                row!["plain", 3usize, 0.5f64],
                row!["comma, quote\" and\nnewline", -7i64, 1e-9f64],
                row!["unicode: naïve 🦀", 0usize, 123.0f64],
            ]
        },
    }
}

fn execute() -> ExperimentResult {
    demo_spec().execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: Some(9) })
}

#[test]
fn text_rendering_contains_every_cell_and_note() {
    let text = execute().render(Format::Text);
    assert!(text.contains("Format round-trip demo"));
    assert!(text.contains("label") && text.contains("count") && text.contains("mean"));
    assert!(text.contains("plain") && text.contains("unicode: naïve 🦀"));
    assert!(text.contains("note with \"quotes\""));
}

#[test]
fn csv_rendering_round_trips_fields() {
    let csv = execute().render(Format::Csv);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("label,count,mean"));
    let first = lines.next().unwrap();
    assert_eq!(first, "plain,3,0.5");
    // The embedded comma/quote/newline cell must be quoted with doubled quotes, and
    // the newline keeps the record going across raw lines.
    assert!(csv.contains("\"comma, quote\"\" and\nnewline\""));
    // Full float precision (Rust's `{}` rendering of 1e-9), not the text table's
    // engineering truncation.
    assert!(csv.contains("0.000000001"));
}

#[test]
fn json_rendering_parses_and_round_trips_rows() {
    let result = execute();
    let json_text = result.render(Format::Json);
    let doc = Json::parse(&json_text).expect("runner JSON must parse");

    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("format_roundtrip_demo"));
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("tiny"));
    assert_eq!(doc.get("procs_override"), Some(&Json::Num(4.0)));
    assert_eq!(doc.get("seed_override"), Some(&Json::Num(9.0)));

    let columns: Vec<&str> =
        items(doc.get("columns")).iter().map(|c| c.as_str().unwrap()).collect();
    assert_eq!(columns, ["label", "count", "mean"]);

    let rows = items(doc.get("rows"));
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("plain"));
    assert_eq!(rows[0].get("count"), Some(&Json::Num(3.0)));
    assert_eq!(rows[0].get("mean"), Some(&Json::Num(0.5)));
    // Escaped content survives the round trip exactly.
    assert_eq!(rows[1].get("label").and_then(Json::as_str), Some("comma, quote\" and\nnewline"));
    assert_eq!(rows[1].get("count"), Some(&Json::Num(-7.0)));
    assert_eq!(rows[2].get("label").and_then(Json::as_str), Some("unicode: naïve 🦀"));

    let notes = items(doc.get("notes"));
    assert_eq!(notes[0].as_str(), Some("note with \"quotes\" and a \\ backslash"));
}

/// A real registered spec's JSON artifact must parse too — the CI smoke steps rely on
/// it (they load the artifacts with `json.load`).
#[test]
fn registered_spec_json_parses() {
    let spec = repro_bench::experiments::find("fig3").expect("fig3 exists");
    let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: None, seed: None });
    let doc = Json::parse(&result.render(Format::Json)).expect("fig03 JSON must parse");
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fig03"));
    assert_eq!(items(doc.get("rows")).len(), 32);
}
