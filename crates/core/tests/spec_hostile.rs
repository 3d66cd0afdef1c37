//! Hostile input for the two ways a `RunSpec` reaches us from outside:
//! a JSON line we did not write and an argv we did not type. A seeded
//! generator mutates valid input; the decoder and the flag loop may
//! refuse it with a typed error, but they may never panic.

use dns_core::flags::Command;
use dns_core::spec::{InitialCondition, RunSpec, SpecError};
use dns_core::{Forcing, Params};
use dns_json::Json;

/// Knuth's MMIX LCG; the high bits are the good ones.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }
    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.below(pool.len())]
    }
}

/// Values a field was never meant to hold.
const HOSTILE: &[&str] = &[
    "1e300",
    "-1e300",
    "-1",
    "0",
    "2.5",
    "1e-300",
    "18446744073709551616",
    "9007199254740993",
    "\"deep\"",
    "\"\"",
    "true",
    "false",
    "null",
    "[]",
    "{}",
    "[1e300,{\"kind\":\"laminar\"}]",
];

fn hostile(rng: &mut Lcg) -> Json {
    dns_json::parse(rng.pick::<&str>(HOSTILE)).unwrap()
}

fn seeds() -> Vec<String> {
    let mut flux = RunSpec {
        name: "flux \"quoted\" \u{00e9}".into(),
        params: Params::channel(16, 25, 16, 50.0).with_grid(2, 2),
        steps: 4,
        ckpt_every: 2,
        ic: InitialCondition::SeededTransition {
            scale: 0.6,
            amplitude: 1e-3,
            seed: 42,
        },
    };
    flux.params.forcing = Forcing::ConstantMassFlux { bulk: 0.9 };
    let mut unforced = RunSpec {
        ic: InitialCondition::Laminar { scale: 1.0 },
        ..RunSpec::default()
    };
    unforced.params.forcing = Forcing::None;
    // a line as written while both legacy keys were still emitted
    let legacy = r#"{"batched":true,"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"389b938e81e50c5f","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
    assert!(RunSpec::from_json(legacy).is_ok());
    vec![
        RunSpec::default().to_json(),
        flux.to_json(),
        unforced.to_json(),
        legacy.to_string(),
    ]
}

/// Every `(path, value)` leaf of a spec object, one level of nesting deep.
fn leaves(v: &Json) -> Vec<(Vec<String>, Json)> {
    let Json::Obj(top) = v else { unreachable!() };
    let mut out = Vec::new();
    for (k, val) in top {
        out.push((vec![k.clone()], val.clone()));
        if let Json::Obj(inner) = val {
            for (k2, val2) in inner {
                out.push((vec![k.clone(), k2.clone()], val2.clone()));
            }
        }
    }
    out
}

/// `v` with the leaf at `path` replaced (`Some`) or deleted (`None`);
/// unchanged when an earlier swap took the leaf's parent object away.
fn with_leaf(v: &Json, path: &[String], to: Option<Json>) -> Json {
    let Json::Obj(mut top) = v.clone() else {
        unreachable!()
    };
    let slot = match path {
        [_] => &mut top,
        [k, _] => match top.get_mut(k) {
            Some(Json::Obj(inner)) => inner,
            _ => return v.clone(),
        },
        _ => unreachable!(),
    };
    match to {
        Some(val) => slot.insert(path[path.len() - 1].clone(), val),
        None => slot.remove(&path[path.len() - 1]),
    };
    Json::Obj(top)
}

fn mutate(rng: &mut Lcg, line: &str) -> String {
    let parsed = dns_json::parse(line).unwrap();
    let all = leaves(&parsed);
    let (path, _) = rng.pick(&all);
    // half the mutants drop the digest, so the damage reaches the field
    // checks and `validate` instead of stopping at the hash comparison
    let base = if rng.below(2) == 0 {
        with_leaf(&parsed, &["hash".to_string()], None)
    } else {
        parsed.clone()
    };
    match rng.below(8) {
        0 => {
            let mut bytes = line.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] = rng.below(256) as u8;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let mut cut = rng.below(line.len());
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_string()
        }
        2 => with_leaf(&base, path, None).dump(),
        // a duplicated key: the parser sees it twice with two values
        3 => format!(
            "{{\"{}\":{},{}",
            path[0],
            rng.pick(HOSTILE),
            &base.dump()[1..]
        ),
        4 | 5 => {
            let to = hostile(rng);
            with_leaf(&base, path, Some(to)).dump()
        }
        6 => {
            let key = *rng.pick::<&str>(&["batched", "pipeline"]);
            let to = hostile(rng);
            with_leaf(&base, &[key.to_string()], Some(to)).dump()
        }
        _ => {
            // two independent swaps, e.g. a bad grid *and* a bad ic
            let (other, _) = rng.pick(&all);
            let a = hostile(rng);
            let b = hostile(rng);
            with_leaf(&with_leaf(&base, path, Some(a)), other, Some(b)).dump()
        }
    }
}

#[test]
fn no_mutated_spec_line_panics_the_decoder() {
    let seeds = seeds();
    let mut rng = Lcg(0x5EED_0019);
    let (mut ok, mut parse, mut field, mut hash, mut invalid) = (0, 0, 0, 0, 0);
    for case in 0..12_000 {
        let line = mutate(&mut rng, &seeds[case % seeds.len()]);
        match RunSpec::from_json(&line) {
            Ok(spec) => {
                // what decodes is a valid run and survives its own codec
                spec.validate().unwrap();
                assert_eq!(RunSpec::from_json(&spec.to_json()).as_ref(), Ok(&spec));
                ok += 1;
            }
            Err(SpecError::Parse(_)) => parse += 1,
            Err(SpecError::Field(_)) => field += 1,
            Err(SpecError::HashMismatch { .. }) => hash += 1,
            Err(SpecError::Invalid(_)) => invalid += 1,
        }
    }
    // the generator reaches every outcome, not just the parser's front door
    for (what, n) in [
        ("ok", ok),
        ("parse", parse),
        ("field", field),
        ("hash", hash),
        ("invalid", invalid),
    ] {
        assert!(n >= 100, "only {n} of 12000 mutants ended as `{what}`");
    }
}

#[test]
fn huge_and_negative_numbers_in_every_numeric_slot_are_refused_or_valid() {
    for line in seeds() {
        let parsed = dns_json::parse(&line).unwrap();
        let unhashed = with_leaf(&parsed, &["hash".to_string()], None);
        for (path, val) in leaves(&unhashed) {
            if !matches!(val, Json::Num(_)) {
                continue;
            }
            for bad in [1e300, -1e300, -1.0, -0.0, f64::MAX, 1.8446744073709552e19] {
                let mutant = with_leaf(&unhashed, &path, Some(Json::Num(bad))).dump();
                if let Ok(spec) = RunSpec::from_json(&mutant) {
                    spec.validate().unwrap();
                }
            }
        }
    }
}

#[test]
fn no_mutated_argv_panics_the_flag_loop() {
    let flags: &[&str] = &[
        "--spec",
        "--nx",
        "--ny",
        "--nz",
        "--re",
        "--lx",
        "--lz",
        "--dt",
        "--stretch",
        "--threads",
        "--grid",
        "--steps",
        "--checkpoint-every",
        "--ckpt-every",
        "--flux",
        "--gradient",
        "--turbulent-ic",
        "--laminar-ic",
        "--help",
        "-h",
        "--",
        "",
        "--n\u{00e9}",
        "nx",
    ];
    let values: &[&str] = &[
        "32",
        "0",
        "-1",
        "1e300",
        "-1e300",
        "nan",
        "inf",
        "2.5",
        "",
        "x",
        "2x",
        "x2",
        "0x0",
        "2x2",
        "99999999999999999999",
        "18446744073709551615x18446744073709551615",
        "--nx",
        "\u{00e9}",
    ];
    // `--spec` reads a file: point it at mutated spec lines, never at a
    // path that could block or be large
    let dir = std::env::temp_dir().join(format!("spec-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seeds = seeds();
    let mut rng = Lcg(0xA26F);
    let mut files = vec![dir.join("missing.json").display().to_string()];
    for i in 0..40 {
        let path = dir.join(format!("spec{i}.json"));
        let line = match i % 4 {
            0 => seeds[i % seeds.len()].clone(),
            _ => mutate(&mut rng, &seeds[i % seeds.len()]),
        };
        std::fs::write(&path, line).unwrap();
        files.push(path.display().to_string());
    }
    let rows = Command {
        name: "spec",
        about: "",
        flags: &[],
        spec: Some(|s| s),
    };
    let (mut ok, mut refused) = (0, 0);
    for _ in 0..10_000 {
        let mut argv = Vec::new();
        for _ in 0..=rng.below(6) {
            let flag = *rng.pick(flags);
            argv.push(flag.to_string());
            match (flag, rng.below(8)) {
                (_, 0) => {} // value missing (or a stray one for a bare flag)
                ("--spec", _) => argv.push(rng.pick(&files).clone()),
                _ => argv.push(rng.pick(values).to_string()),
            }
        }
        let mut spec = RunSpec::default();
        match rows.apply(&argv, &mut spec) {
            Ok(_) => {
                // whatever landed is checkable without panicking either
                let _ = spec.validate();
                let _ = spec.to_json();
                ok += 1;
            }
            Err(e) => {
                assert!(!e.is_empty());
                refused += 1;
            }
        }
    }
    assert!(
        ok >= 100 && refused >= 100,
        "{ok} applied, {refused} refused"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
