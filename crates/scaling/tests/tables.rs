//! The table emitters on a hand-built campaign: fixed points and fixed
//! probe seconds in the shape of a `--smoke` run, nothing is run. Pins
//! the artifact schema against the output of the commit before the one
//! writer (`golden/table6_11_leaves.txt`) and of the first `--smoke` run
//! that wrote Table 1 and the fusion ablation
//! (`golden/table1_fusion_leaves.txt`), every model value bit for bit as
//! the commit before the machine model moved into this crate wrote it
//! (`golden/model_values.txt`), the numbers of the deleted
//! `table2`-`table5` / `conclusions` binaries, the gate's reading of
//! oversubscribed points, and the text renderer. The one test that runs
//! something, the kernel probes at a tiny size, is the only telemetry
//! user in this binary (the level is process-global).

use std::collections::BTreeMap;

use dns_json::Json;
use dns_scaling::campaign::{grid, CountRatios, EventsimCheck};
use dns_scaling::model::calibration::Calibration;
use dns_scaling::model::dnscost::StepCounts;
use dns_scaling::paper;
use dns_scaling::perfdb::flatten_metrics;
use dns_scaling::probe::{probe_fusion, probe_table1, FusionRow, SweepRow, Table1};
use dns_scaling::tables::{self, layout, rows_text, table_text};
use dns_scaling::{Bench, Campaign, CampaignConfig, Point};
use dns_telemetry::PhaseSeconds;

/// More cores than any host has.
const TOO_MANY: usize = 1 << 20;

fn point(bench: Bench, ranks: usize, threads: usize, total_s: f64) -> Point {
    let g = match bench {
        Bench::Rk3Weak => grid(16 * ranks, 17, 16),
        Bench::PfftCustom | Bench::PfftBaseline => grid(32, 17, 32),
        _ => grid(32, 33, 32),
    };
    let ns = if bench.is_rk3() { 0.2 } else { 0.0 };
    Point {
        bench,
        grid: g,
        ranks,
        threads,
        steps: 2,
        cores: ranks * threads,
        seconds: PhaseSeconds {
            transpose: 0.3 * total_s,
            fft: (0.7 - ns) * total_s,
            ns_advance: ns * total_s,
            other: 0.0,
        },
        wall_s: 1.1 * total_s,
        counts: StepCounts {
            fft_flops: 5.0e7,
            ns_flops: 1.0e8 * ns,
            transpose_bytes: 3.0e7,
        },
        counts_file: format!("counts_{}_r{ranks}_t{threads}.json", bench.label()),
    }
}

/// The 13 points of a smoke campaign, every one predicted exactly by
/// the calibration below when it takes 0.01 s.
fn campaign() -> Campaign {
    let mut points = Vec::new();
    for bench in [Bench::Rk3Strong, Bench::Rk3Weak] {
        points.extend([1, 2, 4].map(|r| point(bench, r, 1, 0.01)));
    }
    points.push(point(Bench::Rk3Hybrid, 1, 2, 0.01));
    for bench in [Bench::PfftCustom, Bench::PfftBaseline] {
        points.extend([1, 2, 4].map(|r| point(bench, r, 1, 0.01)));
    }
    let cal_rk3 = Calibration {
        fft_flop_rate: 5.0e7 / 0.005,
        ns_flop_rate: 2.0e7 / 0.002,
        stream_bw: 3.0e7 / 0.003,
    };
    let cal_pfft = Calibration {
        fft_flop_rate: 5.0e7 / 0.007,
        ..cal_rk3
    };
    let sim = |cores, comm_size| EventsimCheck {
        cores,
        comm_size,
        analytic_s: 100.0,
        sim_s: 101.0,
    };
    Campaign {
        cfg: CampaignConfig {
            smoke: true,
            out_dir: ".".into(),
        },
        points,
        cal_rk3,
        cal_pfft,
        // the exact-integer quotients every smoke run of the parent reads
        ratios: CountRatios {
            rk3_fft: 0.9997384429511028,
            rk3_ns: 0.28703459821428573,
            rk3_transpose: 0.7285714285714285,
            pfft_fft: 1.0,
            pfft_transpose: 0.75,
        },
        eventsim: vec![sim(512, 32), sim(1024, 64)],
        table1: table1(),
        reorder: vec![
            ("transpose_split_fast", [33, 16, 48], 2.0e-5),
            ("transpose_yz_lanes", [48, 32, 33], 2.0e-5),
            ("transpose_zy_lanes", [80, 33, 32], 2.0e-5),
            ("reorder_naive", [33, 16, 32], 2.0e-5),
            ("reorder_blocked", [33, 16, 32], 1.0e-5),
        ],
        splits: vec![(8, 1, 5e-4), (4, 2, 5e-4), (2, 4, 5e-4), (1, 8, 4e-4)],
        split_sim: vec![vec![0.07; 6], vec![0.3; 4]],
        fusion_grid: grid(32, 33, 32),
        fusion: [1, 2]
            .map(|threads| FusionRow {
                threads,
                seconds: [1.2e-2, 4.4e-3],
                ddr_bytes: [12_165_120, 10_813_440],
            })
            .into(),
    }
}

/// Table 1 in the shape of a `--smoke` run; the bandwidth-15 corner
/// solve takes 3e-5 s.
fn table1() -> Table1 {
    let classic = paper::TABLE1
        .iter()
        .map(|&(bw, ..)| (bw, [4e-5, 3e-5, 1e-5 * bw as f64 / 5.0]));
    let sweep = [1, 8, 32].map(|width| SweepRow {
        n: 128,
        width,
        seconds: [3e-6, 6e-7, 1e-6].map(|s| s * width as f64),
        max_rel_err: 0.0,
        shared_solve_s: [3e-6 * width as f64, 5e-7 * width as f64],
        shared_matvec_s: [1.5e-6 * width as f64, 4e-7 * width as f64],
    });
    Table1 {
        n: 1024,
        classic: classic.collect(),
        sweep: sweep.into(),
        setup: vec![(25, 119, [1.7e-4, 5.4e-5])],
    }
}

fn sections(table: &Json) -> &[Json] {
    table.get("sections").and_then(Json::as_arr).unwrap()
}

fn rows(section: &Json) -> &[Json] {
    section.get("rows").and_then(Json::as_arr).unwrap()
}

fn section<'a>(table: &'a Json, name: &str) -> &'a [Json] {
    let named = |s: &&Json| s.get("name").and_then(Json::as_str) == Some(name);
    rows(sections(table).iter().find(named).unwrap())
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number {key} in {}", row.dump()))
}

fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs()
}

fn keys(row: &Json) -> Vec<&String> {
    match row {
        Json::Obj(map) => map.keys().collect(),
        other => panic!("not a row: {}", other.dump()),
    }
}

#[test]
fn every_artifact_round_trips_and_rows_carry_their_fields() {
    let c = campaign();
    let all = tables::all(&c);
    let names: Vec<&str> = all.iter().map(|(name, _)| name.as_str()).collect();
    let mut tables: Vec<String> = (1..=11).map(|n| format!("BENCH_table{n}.json")).collect();
    tables.push("BENCH_fusion.json".into());
    assert_eq!(names[..12], tables[..]);
    assert_eq!(names[12], "BENCH_scalinglab.json");
    for (name, value) in &all {
        let mut text = String::new();
        layout(value, 0, &mut text);
        let parsed = dns_json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&parsed, value, "{name} does not round-trip");
        // a row is a line
        let row_lines = text.lines().filter(|l| l.contains("\"source\"")).count();
        if name != "BENCH_scalinglab.json" {
            let n_rows: usize = sections(value).iter().map(|s| rows(s).len()).sum();
            assert_eq!(row_lines, n_rows, "{name}");
        }
    }
    for (name, table) in &all[..12] {
        let named = sections(table).iter().flat_map(|s| {
            let section = s.get("name").and_then(Json::as_str).unwrap();
            rows(s).iter().map(move |r| (section, r))
        });
        for (section, row) in named {
            let keys = keys(row);
            let has = |k: &str| keys.iter().any(|key| *key == k);
            match row.get("source").and_then(Json::as_str) {
                Some("both") => {
                    for k in ["measured_s", "modelled_s", "err_rel", "oversubscribed"] {
                        assert!(has(k), "{name}: no {k} in {}", row.dump());
                    }
                }
                Some("modelled") => {
                    // every modelled quantity the paper tabulates has the
                    // paper's value beside it (Table 3: one per kernel)
                    let modelled = keys.iter().filter_map(|k| k.strip_prefix("modelled_"));
                    for what in modelled.filter(|what| *what != "efficiency") {
                        let beside = |k: &&String| k.starts_with("paper_") && k.ends_with(what);
                        assert!(
                            keys.iter().any(beside),
                            "{name}: lone {what}: {}",
                            row.dump()
                        );
                    }
                }
                Some("measured") => {
                    assert!(has("oversubscribed"), "{name}: {}", row.dump());
                    match timed_keys(name, section) {
                        Some(want) => {
                            let mut got: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
                            got.retain(|k| k.ends_with("_s"));
                            got.sort_unstable();
                            assert_eq!(got, want, "{name} {section}");
                        }
                        None => assert!(has("measured_s"), "{name}: {}", row.dump()),
                    }
                }
                Some("eventsim") => assert!(has("sim_s")),
                other => panic!("{name}: row source {other:?}"),
            }
        }
    }
}

/// The sorted seconds keys of a `measured` row of Table 1 or the fusion
/// ablation, which time both sides of a comparison; every other measured
/// row times one thing, its `measured_s`.
fn timed_keys(artifact: &str, section: &str) -> Option<Vec<&'static str>> {
    let keys = match (artifact, section) {
        ("BENCH_table1.json", "classic") => "custom_s general_complex_s general_real_s",
        ("BENCH_table1.json", "batched_sweep") => {
            "batched_s scalar_s shared_matvec_panel_s shared_matvec_scalar_s \
             shared_solve_panel_s shared_solve_scalar_s threaded_s"
        }
        ("BENCH_table1.json", "setup") => "lane_s scalar_s",
        ("BENCH_fusion.json", "fusion") => "fused_s unfused_s",
        _ => return None,
    };
    Some(keys.split_whitespace().collect())
}

/// The flattened leaves of `artifacts`, each `{stem}/{leaf}` (the stem
/// without `BENCH_`), equal the `golden` list.
fn assert_leaves(artifacts: &[(String, Json)], golden: &str) {
    let mut leaves = Vec::new();
    for (name, value) in artifacts {
        let stem = name.trim_start_matches("BENCH_").trim_end_matches(".json");
        let mut flat = BTreeMap::new();
        flatten_metrics(value, "", &mut flat);
        leaves.extend(flat.into_keys().map(|k| format!("{stem}/{k}")));
    }
    let mut golden: Vec<&str> = golden.lines().collect();
    golden.sort_unstable();
    leaves.sort_unstable();
    assert_eq!(leaves.len(), golden.len());
    for (got, want) in leaves.iter().zip(golden) {
        assert_eq!(got, want);
    }
}

/// Every number the machine model and the host calibration put in
/// `artifacts`: each `modelled*` leaf, each leaf of a machine (non-`host`)
/// section, section 7, and each `err_rel` / `residual`, as
/// `{stem}/{leaf} = value` in shortest round-trip form.
fn model_values(artifacts: &[(String, Json)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, value) in artifacts {
        let stem = name.trim_start_matches("BENCH_").trim_end_matches(".json");
        let machine = |i: &str| {
            let s =
                &value.get("sections").and_then(Json::as_arr).unwrap()[i.parse::<usize>().unwrap()];
            s.get("machine").and_then(Json::as_str) != Some("host")
        };
        let mut flat = BTreeMap::new();
        flatten_metrics(value, "", &mut flat);
        for (leaf, v) in flat {
            let parts: Vec<&str> = leaf.split('.').collect();
            let keep = (parts[0] == "sections" && machine(parts[1]))
                || parts[0] == "conclusions"
                || parts.iter().any(|p| p.starts_with("modelled"))
                || matches!(parts[parts.len() - 1], "err_rel" | "residual");
            if keep {
                lines.push(format!("{stem}/{leaf} = {v}"));
            }
        }
    }
    lines
}

#[test]
fn model_values_equal_the_golden_file() {
    let got = model_values(&tables::all(&campaign()));
    let want: Vec<&str> = include_str!("golden/model_values.txt").lines().collect();
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

#[test]
fn tables_6_to_11_keep_the_parents_leaf_names() {
    let all = tables::all(&campaign());
    assert_leaves(&all[5..11], include_str!("golden/table6_11_leaves.txt"));
}

#[test]
fn table1_and_fusion_keep_the_smoke_runs_leaf_names() {
    let all = tables::all(&campaign());
    let golden = include_str!("golden/table1_fusion_leaves.txt");
    assert_leaves(&[all[0].clone(), all[11].clone()], golden);
}

#[test]
fn classic_rows_carry_the_paper_values_of_their_bandwidth() {
    let t1 = tables::table1_json(&campaign());
    let classic = section(&t1, "classic");
    assert_eq!(classic.len(), paper::TABLE1.len());
    for row in classic {
        let bw = num(row, "bandwidth") as usize;
        let p = paper::TABLE1.iter().find(|p| p.0 == bw).unwrap();
        let published = [
            ("paper_mkl_real", p.1),
            ("paper_mkl_complex", p.2),
            ("paper_custom_lonestar", p.3),
            ("paper_essl", p.4),
            ("paper_custom_mira", p.5),
        ];
        for (key, value) in published {
            assert_eq!(num(row, key), value, "bandwidth {bw}: {key}");
        }
        let speedup = num(row, "general_complex_s") / num(row, "custom_s");
        assert_eq!(num(row, "speedup"), speedup);
    }
}

#[test]
fn kernel_probes_hold_their_pins_and_table2_reads_table1() {
    // the pins (batched vs scalar, shared-operator panels, lane-built
    // factors) are asserts inside the probe, ahead of every timing
    let mut c = campaign();
    c.table1 = probe_table1(&[32], &[1, 9], &[(17, 9)], 1);
    assert_eq!(c.table1.sweep.len(), 2);
    assert!(c.table1.sweep.iter().all(|r| r.max_rel_err < 1e-12));
    c.fusion = probe_fusion(grid(16, 17, 16), &[1, 2], 1);
    for r in &c.fusion {
        let [unfused, fused] = r.ddr_bytes;
        assert!(
            0 < fused && fused < unfused,
            "threads {}: {unfused} {fused}",
            r.threads
        );
        assert_eq!(r.ddr_bytes, c.fusion[0].ddr_bytes, "exact counts");
    }
    let t2 = tables::table2_json(&c);
    let host = &section(&t2, "host_banded_solve")[0];
    let t1 = tables::table1_json(&c);
    let classic = section(&t1, "classic");
    let corner = classic
        .iter()
        .find(|r| num(r, "bandwidth") == 15.0)
        .unwrap();
    let corner_s = num(corner, "custom_s");
    assert!(corner_s > 0.0);
    assert_eq!(num(host, "measured_s"), corner_s);
    assert_eq!(num(host, "n"), num(corner, "n"));
    assert_eq!(num(corner, "n"), 1024.0, "the paper's size");
}

#[test]
fn model_rows_equal_the_parents() {
    let c = campaign();
    // Table 9, Mira MPI at 786,432 cores, as the parent's smoke run wrote it
    let t9 = tables::table9_json(&c);
    let mira = section(&t9, "mira_mpi").last().unwrap();
    assert_eq!(num(mira, "cores"), 786_432.0);
    assert!(close(num(mira, "modelled_transpose_s"), 3.788507, 1e-6));
    assert!(close(num(mira, "modelled_s"), 5.290114, 1e-6));
    assert_eq!(num(mira, "paper_s"), 7.06);
    let blue = sections(&t9).last().unwrap();
    assert_eq!(
        blue.get("machine").and_then(Json::as_str),
        Some("blue_waters")
    );

    // the deleted table2 binary: no-SIMD 1.14 GF (8.91 %), 16.6 B/cycle, 3.40 s
    let t2 = tables::table2_json(&c);
    let no_simd = &section(&t2, "mira_hpm")[1];
    assert_eq!(no_simd.get("build").and_then(Json::as_str), Some("no_simd"));
    assert!(close(num(no_simd, "modelled_gflops"), 1.14, 5e-3));
    assert!(close(num(no_simd, "modelled_s"), 3.40, 2e-3));
    assert!(close(
        num(no_simd, "modelled_ddr_bytes_per_cycle"),
        16.6,
        4e-3
    ));
    assert_eq!(num(no_simd, "paper_s"), 3.34);
    let solve = &section(&t2, "host_banded_solve")[0];
    assert!(close(
        num(solve, "measured_gflops"),
        122_880.0 / 3.0e-5 / 1e9,
        1e-12
    ));

    // table3: Mira 16x4 speedup 33.6 at 210 % per-core efficiency
    let t3 = tables::table3_json(&c);
    let mira = section(&t3, "mira").last().unwrap();
    assert_eq!(num(mira, "threads"), 64.0);
    assert!(close(num(mira, "modelled_speedup"), 33.6, 2e-3));
    assert!(close(num(mira, "modelled_efficiency"), 2.10, 3e-3));
    assert_eq!(num(mira, "paper_ns_speedup"), 34.5);
    let host = section(&t3, "host_threads");
    let threads: Vec<f64> = host.iter().map(|r| num(r, "threads")).collect();
    assert_eq!(
        threads,
        [1.0, 2.0],
        "the one-rank strong point, then the hybrid one"
    );

    // table4: 16.6 B/cycle at 16 threads, 13.9 at 64
    let t4 = tables::table4_json(&c);
    let mira = section(&t4, "mira");
    assert!(close(
        num(&mira[3], "modelled_ddr_bytes_per_cycle"),
        16.6,
        4e-3
    ));
    assert!(close(
        num(&mira[5], "modelled_ddr_bytes_per_cycle"),
        13.9,
        4e-3
    ));
    let blocked = section(&t4, "host_reorder").last().unwrap();
    assert_eq!(num(blocked, "bytes"), (2 * 16 * 33 * 16 * 32) as f64);
    assert!(close(num(blocked, "measured_gb_per_s"), 54.0672, 1e-12));

    // table5: Mira 512x16 0.154 s (best), 64x128 0.220 s (worst, 1.43x)
    let t5 = tables::table5_json(&c);
    let mira = section(&t5, "mira");
    assert!(close(num(&mira[0], "modelled_s"), 0.154, 4e-3));
    assert_eq!(num(&mira[0], "modelled_vs_best"), 1.0);
    assert!(close(num(&mira[3], "modelled_s"), 0.220, 3e-3));
    assert!(close(num(&mira[3], "modelled_vs_best"), 1.43, 4e-3));
    assert!(close(num(&mira[5], "modelled_vs_best"), 1.38, 4e-3));
    assert_eq!(num(&mira[5], "paper_s"), 0.626);
    assert_eq!(section(&t5, "host_functional").len(), 4);
}

#[test]
fn section7_equals_the_deleted_conclusions_binary() {
    let lab = tables::scalinglab_json(&campaign());
    let s7 = lab.get("conclusions").unwrap();
    let aggregate = s7.get("aggregate").unwrap();
    assert_eq!(num(aggregate, "modelled_tflops").round(), 298.0);
    assert_eq!(num(aggregate, "modelled_compute_tflops").round(), 963.0);
    assert_eq!(num(aggregate, "paper_tflops"), 271.0);
    let doubled = s7.get("sensitivity").and_then(Json::as_arr).unwrap();
    let speedup = |i: usize, key| (num(&doubled[i], key) * 100.0).round() / 100.0;
    assert_eq!(speedup(0, "injection_speedup"), 1.48);
    assert_eq!(speedup(1, "injection_speedup"), 1.23);
    assert_eq!(speedup(2, "bisection_speedup"), 1.85);
    let threading = s7.get("hybrid_vs_mpi").unwrap();
    assert!(close(num(threading, "modelled_mpi_s"), 10.86, 5e-4));
    assert!(close(num(threading, "modelled_hybrid_s"), 10.26, 5e-4));
    assert_eq!(
        (num(threading, "modelled_saving_frac") * 100.0).round(),
        6.0
    );
}

#[test]
fn the_gate_reads_only_points_the_host_has_cores_for() {
    // every point fits any host; then an oversubscribed one keeps its
    // row and drops out of the gate
    let mut c = campaign();
    c.points.iter_mut().for_each(|p| p.cores = 1);
    let wild = Point {
        cores: TOO_MANY,
        ..point(Bench::Rk3Strong, 8, 1, 1.0)
    };
    assert!(wild.oversubscribed() && c.err_rel(&wild) > 0.9);
    c.points.insert(3, wild);
    assert!(c.worst_err().0 < 1e-9 && c.check_passes());
    let lab = tables::scalinglab_json(&c);
    let listed = lab.get("points").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), 14);
    assert_eq!(listed[3].get("gated"), Some(&Json::Bool(false)));
    assert_eq!(listed[0].get("gated"), Some(&Json::Bool(true)));
    // a gated point past the bound fails it
    c.points[0].seconds.fft *= 4.0;
    assert!(c.worst_err().0 > 0.5 && c.worst_err().1 == 0 && !c.check_passes());
    c.points[0] = point(Bench::Rk3Strong, 1, 1, 0.01);
    assert!(c.check_passes());
    // a family with no gated point is a failure, not a vacuous pass
    for p in c.points.iter_mut().filter(|p| p.bench == Bench::Rk3Hybrid) {
        p.cores = TOO_MANY;
    }
    assert_eq!(c.ungated_families(), [Bench::Rk3Hybrid]);
    assert!(!c.check_passes());
    let check = tables::scalinglab_json(&c);
    let pass = check.get("check").and_then(|k| k.get("pass"));
    assert_eq!(pass, Some(&Json::Bool(false)));
}

#[test]
fn text_view_has_the_first_rows_keys_and_a_line_per_row() {
    let t6 = tables::table6_json(&campaign());
    let stampede = section(&t6, "stampede");
    let text = rows_text(&Json::Arr(stampede.to_vec()));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        2 + stampede.len(),
        "header, rule, one line per row"
    );
    let columns: Vec<&str> = lines[0].split_whitespace().collect();
    assert_eq!(columns, keys(&stampede[0]));
    // an N/A cell of the paper is null, integers print as integers
    assert!(lines[2].split_whitespace().any(|cell| cell == "null"));
    assert_eq!(lines[2].split_whitespace().next(), Some("16"));
    // one row alone is a one-line table
    assert_eq!(rows_text(&stampede[0]).lines().count(), 3);
    let whole = table_text(&t6);
    assert!(whole.starts_with("== Table 6: Parallel FFT strong scaling"));
    let headings = whole.lines().filter(|l| l.ends_with(')')).count();
    assert_eq!(headings, sections(&t6).len());
}
