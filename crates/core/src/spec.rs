//! The one description of a run: [`RunSpec`] (what to simulate), its
//! digest, JSON form and validation, and [`SPEC_FLAGS`] — the single
//! table saying how each field is spelled on a command line. `dns-run`
//! and `dns-cli submit` both parse through [`apply`] and print their help
//! through [`usage`], so a new run option is one struct field, its codec
//! line and one table row.

use std::fmt::Write as _;

use crate::params::{mix, Forcing, Params};
use dns_json::Json;

/// How the velocity field is initialised when a run starts from scratch
/// (a resumed run restores its fields from the checkpoint instead).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InitialCondition {
    /// Turbulent mean profile plus a seeded random perturbation.
    Turbulent {
        /// Perturbation amplitude.
        amplitude: f64,
        /// Deterministic perturbation seed.
        seed: u64,
    },
    /// Exact laminar (Poiseuille) equilibrium at the given centreline
    /// scale.
    Laminar {
        /// Profile scale factor.
        scale: f64,
    },
    /// Scaled-down laminar profile plus a seeded perturbation — the
    /// transition recipe the figure harnesses use for the minimal
    /// channel (the excess shear feeds the instability far more
    /// reliably than starting from the turbulent mean; see
    /// `dns_scaling::validation::minimal_channel_params`). Used by the
    /// `dns-validate` science gate.
    SeededTransition {
        /// Laminar profile scale factor.
        scale: f64,
        /// Perturbation amplitude.
        amplitude: f64,
        /// Deterministic perturbation seed.
        seed: u64,
    },
}

/// Digest-slot value of a spec without the legacy `"pipeline"` key (the
/// default depth while the key was written), so every digest ever
/// embedded still verifies.
const LEGACY_PIPELINE: u64 = 4;

/// A complete, serializable description of one simulation run: the
/// physics and decomposition ([`Params`]), the step budget, the
/// checkpoint cadence, and the initial condition.
///
/// The JSON form embeds a digest of every field (`"hash"`); loading a
/// spec whose digest disagrees with its contents is a typed error, so a
/// corrupted or hand-mangled spec file is rejected before it burns core
/// hours. [`RunSpec::validate`] returns the rules of [`Params::check`]
/// as typed errors instead of panicking — the campaign server rejects
/// bad submissions, it does not crash.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Display name (free-form; shows up in queue listings).
    pub name: String,
    /// Physics and decomposition.
    pub params: Params,
    /// Total timesteps the run must complete.
    pub steps: u64,
    /// Write a checkpoint generation every N steps (0 = only on pause).
    pub ckpt_every: u64,
    /// How the fields are initialised on a fresh start.
    pub ic: InitialCondition,
}

/// Why a [`RunSpec`] could not be validated or decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The JSON text did not parse.
    Parse(String),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// The embedded digest disagrees with the decoded fields.
    HashMismatch {
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed from the decoded fields.
        computed: u64,
    },
    /// A field value is out of range; the message names it.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec does not parse: {e}"),
            SpecError::Field(name) => write!(f, "spec field {name} missing or mistyped"),
            SpecError::HashMismatch { stored, computed } => write!(
                f,
                "spec hash mismatch: file says {stored:016x}, contents hash to {computed:016x}"
            ),
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            name: "run".into(),
            params: Params::channel(32, 65, 32, 180.0).with_dt(5e-4),
            steps: 1000,
            ckpt_every: 0,
            ic: InitialCondition::Turbulent {
                amplitude: 0.5,
                seed: 2024,
            },
        }
    }
}

/// The one-line description `dns-run` opens with and `dns-cli --help`
/// states its base spec in.
impl std::fmt::Display for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = &self.params;
        let (nx, ny, nz, lx, lz) = (p.nx, p.ny, p.nz, p.lx, p.lz);
        let (re, dt, stretch) = (1.0 / p.nu, p.dt, p.grid_stretch);
        let (steps, every, name) = (self.steps, self.ckpt_every, &self.name);
        write!(
            f,
            "{nx} x {ny} x {nz} modes, box {lx:.2} x 2 x {lz:.2}, Re_tau target {re:.0}, dt {dt}, \
             stretch {stretch}, {steps} steps, checkpoint cadence {every}, as {name:?}"
        )
    }
}

impl RunSpec {
    /// Cores this run occupies while scheduled: one per rank thread,
    /// times the on-node worker threads each rank drives.
    pub fn cores(&self) -> usize {
        let p = &self.params;
        (p.pa.saturating_mul(p.pb)).saturating_mul(p.fft_threads.max(1))
    }

    /// Typed validation: [`Params::check`] plus the run-level rules.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.params.check().map_err(SpecError::Invalid)?;
        if self.steps == 0 {
            return Err(SpecError::Invalid("steps must be at least 1".into()));
        }
        if let InitialCondition::Turbulent { amplitude, .. }
        | InitialCondition::SeededTransition { amplitude, .. } = self.ic
        {
            if !amplitude.is_finite() || amplitude < 0.0 {
                return Err(SpecError::Invalid(format!(
                    "perturbation amplitude {amplitude} must be finite and >= 0"
                )));
            }
        }
        Ok(())
    }

    /// Digest of every field, mixed with the same bijective finalizer as
    /// [`Params::state_hash`]. Serialized specs embed it; decoding
    /// verifies it.
    pub fn spec_hash(&self) -> u64 {
        self.digest(LEGACY_PIPELINE)
    }

    /// [`spec_hash`](Self::spec_hash) with an explicit value in the slot
    /// the removed `"pipeline"` key occupied.
    fn digest(&self, pipeline: u64) -> u64 {
        let p = &self.params;
        let mut h = 0x4A4F_4253_0000_0000u64; // "JOBS" salt
        for b in self.name.bytes() {
            h = mix(h, b as u64);
        }
        h = mix(h, p.state_hash());
        for v in [p.pa as u64, p.pb as u64, p.fft_threads as u64, pipeline] {
            h = mix(h, v);
        }
        // the slot `Params::batched` occupied while the scalar wall-normal
        // route was selectable: always 1 now, so digests embedded in specs
        // written before its removal still verify
        h = mix(h, 1);
        h = mix(h, self.steps);
        h = mix(h, self.ckpt_every);
        match self.ic {
            InitialCondition::Turbulent { amplitude, seed } => {
                h = mix(h, 1);
                h = mix(h, amplitude.to_bits());
                h = mix(h, seed);
            }
            InitialCondition::Laminar { scale } => {
                h = mix(h, 2);
                h = mix(h, scale.to_bits());
            }
            InitialCondition::SeededTransition {
                scale,
                amplitude,
                seed,
            } => {
                h = mix(h, 3);
                h = mix(h, scale.to_bits());
                h = mix(h, amplitude.to_bits());
                h = mix(h, seed);
            }
        }
        h
    }

    /// Serialize to the canonical JSON form (single line, sorted keys,
    /// digest embedded).
    pub fn to_json(&self) -> String {
        let p = &self.params;
        let forcing = match p.forcing {
            Forcing::PressureGradient(g) => Json::obj()
                .put("kind", Json::str("pressure_gradient"))
                .put("value", Json::Num(g))
                .build(),
            Forcing::ConstantMassFlux { bulk } => Json::obj()
                .put("kind", Json::str("mass_flux"))
                .put("bulk", Json::Num(bulk))
                .build(),
            Forcing::None => Json::obj().put("kind", Json::str("none")).build(),
        };
        let ic = match self.ic {
            InitialCondition::Turbulent { amplitude, seed } => Json::obj()
                .put("kind", Json::str("turbulent"))
                .put("amplitude", Json::Num(amplitude))
                .put("seed", Json::Num(seed as f64))
                .build(),
            InitialCondition::Laminar { scale } => Json::obj()
                .put("kind", Json::str("laminar"))
                .put("scale", Json::Num(scale))
                .build(),
            InitialCondition::SeededTransition {
                scale,
                amplitude,
                seed,
            } => Json::obj()
                .put("kind", Json::str("seeded_transition"))
                .put("scale", Json::Num(scale))
                .put("amplitude", Json::Num(amplitude))
                .put("seed", Json::Num(seed as f64))
                .build(),
        };
        Json::obj()
            .put("kind", Json::str("run_spec"))
            .put("version", Json::num(1))
            .put("name", Json::str(&self.name))
            .put("nx", Json::num(p.nx as u32))
            .put("ny", Json::num(p.ny as u32))
            .put("nz", Json::num(p.nz as u32))
            .put("lx", Json::Num(p.lx))
            .put("lz", Json::Num(p.lz))
            .put("nu", Json::Num(p.nu))
            .put("dt", Json::Num(p.dt))
            .put("spline_order", Json::num(p.spline_order as u32))
            .put("stretch", Json::Num(p.grid_stretch))
            .put("nonlinear", Json::Bool(p.nonlinear))
            .put("forcing", forcing)
            .put("pa", Json::num(p.pa as u32))
            .put("pb", Json::num(p.pb as u32))
            .put("threads", Json::num(p.fft_threads as u32))
            .put("steps", Json::Num(self.steps as f64))
            .put("ckpt_every", Json::Num(self.ckpt_every as f64))
            .put("ic", ic)
            .put("hash", Json::str(format!("{:016x}", self.spec_hash())))
            .build()
            .dump()
    }

    /// Decode a spec from its JSON form, verifying the embedded digest
    /// (a spec without a `"hash"` field — e.g. hand-written — is
    /// accepted) and validating the result.
    pub fn from_json(text: &str) -> Result<RunSpec, SpecError> {
        let v = dns_json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        fn u(v: &Json, k: &'static str) -> Result<u64, SpecError> {
            v.get(k).and_then(Json::as_u64).ok_or(SpecError::Field(k))
        }
        fn f(v: &Json, k: &'static str) -> Result<f64, SpecError> {
            v.get(k).and_then(Json::as_f64).ok_or(SpecError::Field(k))
        }
        fn b(v: &Json, k: &'static str) -> Result<bool, SpecError> {
            v.get(k).and_then(Json::as_bool).ok_or(SpecError::Field(k))
        }
        fn s<'a>(v: &'a Json, k: &'static str) -> Result<&'a str, SpecError> {
            v.get(k).and_then(Json::as_str).ok_or(SpecError::Field(k))
        }
        if s(&v, "kind")? != "run_spec" {
            return Err(SpecError::Field("kind"));
        }
        let forcing_v = v.get("forcing").ok_or(SpecError::Field("forcing"))?;
        let forcing = match s(forcing_v, "kind")? {
            "pressure_gradient" => Forcing::PressureGradient(f(forcing_v, "value")?),
            "mass_flux" => Forcing::ConstantMassFlux {
                bulk: f(forcing_v, "bulk")?,
            },
            "none" => Forcing::None,
            _ => return Err(SpecError::Field("forcing.kind")),
        };
        let ic_v = v.get("ic").ok_or(SpecError::Field("ic"))?;
        let ic = match s(ic_v, "kind")? {
            "turbulent" => InitialCondition::Turbulent {
                amplitude: f(ic_v, "amplitude")?,
                seed: u(ic_v, "seed")?,
            },
            "laminar" => InitialCondition::Laminar {
                scale: f(ic_v, "scale")?,
            },
            "seeded_transition" => InitialCondition::SeededTransition {
                scale: f(ic_v, "scale")?,
                amplitude: f(ic_v, "amplitude")?,
                seed: u(ic_v, "seed")?,
            },
            _ => return Err(SpecError::Field("ic.kind")),
        };
        let mut params = Params::channel(32, 65, 32, 180.0);
        params.nx = u(&v, "nx")? as usize;
        params.ny = u(&v, "ny")? as usize;
        params.nz = u(&v, "nz")? as usize;
        params.lx = f(&v, "lx")?;
        params.lz = f(&v, "lz")?;
        params.nu = f(&v, "nu")?;
        params.dt = f(&v, "dt")?;
        params.spline_order = u(&v, "spline_order")? as usize;
        params.grid_stretch = f(&v, "stretch")?;
        params.nonlinear = b(&v, "nonlinear")?;
        params.forcing = forcing;
        params.pa = u(&v, "pa")? as usize;
        params.pb = u(&v, "pb")? as usize;
        params.fft_threads = u(&v, "threads")? as usize;
        // accepted from older writers; asking for the removed scalar
        // route must not silently run another
        if v.get("batched").is_some() && !b(&v, "batched")? {
            return Err(SpecError::Field("batched"));
        }
        // the depth of the removed pipelined x-stage: results never
        // depended on it, so it selects nothing, but specs that carry the
        // key mixed its value into their digest
        let pipeline = match v.get("pipeline") {
            Some(_) => u(&v, "pipeline")?,
            None => LEGACY_PIPELINE,
        };
        let spec = RunSpec {
            name: s(&v, "name")?.to_string(),
            params,
            steps: u(&v, "steps")?,
            ckpt_every: u(&v, "ckpt_every")?,
            ic,
        };
        if let Some(stored_hex) = v.get("hash").and_then(Json::as_str) {
            let stored =
                u64::from_str_radix(stored_hex, 16).map_err(|_| SpecError::Field("hash"))?;
            let computed = spec.digest(pipeline);
            if stored != computed {
                return Err(SpecError::HashMismatch { stored, computed });
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}
// ---------------------------------------------------------------------------
// command-line spelling
// ---------------------------------------------------------------------------

/// One command-line flag of a `T`, written as a table row: the flag as
/// typed (`--nx`), its value placeholder for the help (empty: the flag
/// takes no value), the help text, and the setter that stores the value
/// on the target (a flag without one is handed itself).
pub struct Flag<T>(
    pub &'static str,
    pub &'static str,
    pub &'static str,
    pub fn(&mut T, &str) -> Result<(), String>,
);

/// Parse one flag value.
pub fn parsed<V: std::str::FromStr>(v: &str) -> Result<V, String> {
    v.parse().map_err(|_| format!("cannot parse {v:?}"))
}

/// Parse one flag value into `slot`.
pub fn put<V: std::str::FromStr>(slot: &mut V, v: &str) -> Result<(), String> {
    parsed(v).map(|x| *slot = x)
}

/// Older spellings [`apply`] still accepts: `(alias, table name)`.
const ALIASES: &[(&str, &str)] = &[("--ckpt-every", "--checkpoint-every"), ("-h", "--help")];

/// How every [`RunSpec`] field a command line can set is spelled — shared
/// by `dns-run` and `dns-cli submit` (quoted defaults are `dns-run`'s).
#[rustfmt::skip] // a table: one row per flag, not one line per field
pub const SPEC_FLAGS: &[Flag<RunSpec>] = &[
    Flag("--spec", "FILE.json", "load a serialized run spec, name included; later flags override",
        |s, path| {
            let text = std::fs::read_to_string(path);
            let text = text.map_err(|e| format!("cannot read {path}: {e}"))?;
            RunSpec::from_json(&text).map(|spec| *s = spec).map_err(|e| format!("{path}: {e}"))
        }),
    Flag("--nx", "N", "streamwise solution modes (default 32)",
        |s, v| put(&mut s.params.nx, v)),
    Flag("--ny", "N", "wall-normal B-spline points (default 65)",
        |s, v| put(&mut s.params.ny, v)),
    Flag("--nz", "N", "spanwise solution modes (default 32)",
        |s, v| put(&mut s.params.nz, v)),
    Flag("--re", "RE", "target friction Reynolds number (default 180)",
        |s, v| parsed(v).map(|re: f64| s.params.nu = 1.0 / re)),
    Flag("--lx", "L", "streamwise box length (default 2.0)",
        |s, v| put(&mut s.params.lx, v)),
    Flag("--lz", "L", "spanwise box length (default 0.8)",
        |s, v| put(&mut s.params.lz, v)),
    Flag("--dt", "DT", "timestep (default 5e-4)",
        |s, v| put(&mut s.params.dt, v)),
    Flag("--stretch", "S", "tanh grid stretching factor (default 1.9)",
        |s, v| put(&mut s.params.grid_stretch, v)),
    Flag("--threads", "N", "on-node worker threads for the transform line loops (default 1)",
        |s, v| parsed(v).map(|n: usize| s.params.fft_threads = n.max(1))),
    Flag("--grid", "PAxPB", "process grid, e.g. 2x2 (default 1x1; ranks are threads)",
        |s, v| {
            let (pa, pb) = v.split_once('x').ok_or(format!("expected PAxPB, got {v:?}"))?;
            put(&mut s.params.pa, pa)?;
            put(&mut s.params.pb, pb)
        }),
    Flag("--steps", "N", "timesteps to run (default 1000)",
        |s, v| put(&mut s.steps, v)),
    Flag("--checkpoint-every", "N", "write a checkpoint every N steps (default off)",
        |s, v| put(&mut s.ckpt_every, v)),
    Flag("--flux", "BULK", "constant-mass-flux forcing at the given bulk velocity",
        |s, v| parsed(v).map(|bulk| s.params.forcing = Forcing::ConstantMassFlux { bulk })),
    Flag("--gradient", "G", "constant-pressure-gradient forcing",
        |s, v| parsed(v).map(|g| s.params.forcing = Forcing::PressureGradient(g))),
    Flag("--turbulent-ic", "AMP",
        "perturbed turbulent initial condition of amplitude AMP (default 0.5)",
        |s, v| {
            let seed = 2024;
            parsed(v).map(|amplitude| s.ic = InitialCondition::Turbulent { amplitude, seed })
        }),
    Flag("--laminar-ic", "", "start from the laminar profile instead",
        |s, _| { s.ic = InitialCondition::Laminar { scale: 1.0 }; Ok(()) }),
];

/// The only argv loop: set every flag of `argv` on `target`, looking each
/// up in `own` and then in [`SPEC_FLAGS`] (which edit `spec_of(target)`).
pub fn apply<T>(
    argv: &[String],
    target: &mut T,
    own: &[Flag<T>],
    spec_of: fn(&mut T) -> &mut RunSpec,
) -> Result<(), String> {
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let alias = ALIASES.iter().find(|a| a.0 == arg);
        let name = alias.map_or(arg.as_str(), |a| a.1);
        let mut value = |placeholder: &str| match placeholder {
            "" => Ok(arg),
            _ => args.next().ok_or(format!("{arg} needs a value")),
        };
        let set = if let Some(f) = own.iter().find(|f| f.0 == name) {
            (f.3)(target, value(f.1)?)
        } else if let Some(f) = SPEC_FLAGS.iter().find(|f| f.0 == name) {
            (f.3)(spec_of(target), value(f.1)?)
        } else {
            return Err(format!("unknown argument {arg}"));
        };
        set.map_err(|e| format!("{arg}: {e}"))?;
    }
    Ok(())
}

/// The only help renderer: one line per row of [`SPEC_FLAGS`], then of `own`.
pub fn usage<T>(own: &[Flag<T>]) -> String {
    fn rows<T>(out: &mut String, flags: &[Flag<T>]) {
        for Flag(name, value, help, _) in flags {
            let _ = write!(out, "  {:<24} {help}", format!("{name} {value}"));
            for (alias, _) in ALIASES.iter().filter(|a| a.1 == *name) {
                let _ = write!(out, " (also {alias})");
            }
            out.push('\n');
        }
    }
    let mut out = String::new();
    rows(&mut out, SPEC_FLAGS);
    rows(&mut out, own);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            name: "tiny".into(),
            params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
            steps: 4,
            ckpt_every: 2,
            ic: InitialCondition::Laminar { scale: 1.0 },
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let mut spec = tiny_spec();
        spec.params.forcing = Forcing::ConstantMassFlux { bulk: 0.9 };
        spec.params.pa = 2;
        spec.params.pb = 2;
        spec.ic = InitialCondition::Turbulent {
            amplitude: 0.25,
            seed: 7,
        };
        let text = spec.to_json();
        let back = RunSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.cores(), 4);
    }

    #[test]
    fn tampered_spec_is_rejected_by_its_hash() {
        let text = tiny_spec().to_json();
        let tampered = text.replace("\"steps\":4", "\"steps\":400");
        match RunSpec::from_json(&tampered) {
            Err(SpecError::HashMismatch { .. }) => {}
            other => panic!("expected hash mismatch, got {other:?}"),
        }
    }

    #[test]
    fn handwritten_spec_without_hash_is_accepted() {
        let text = tiny_spec().to_json();
        let v = dns_json::parse(&text).unwrap();
        let Json::Obj(mut m) = v else { unreachable!() };
        m.remove("hash");
        let spec = RunSpec::from_json(&Json::Obj(m).dump()).unwrap();
        assert_eq!(spec, tiny_spec());
    }

    #[test]
    fn specs_written_before_the_batched_knob_was_removed_still_decode() {
        // `tiny_spec().to_json()` as emitted at commit 5558978
        const OLD: &str = r#"{"batched":true,"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"389b938e81e50c5f","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
        // the embedded digest verifies, and the key is not written back
        assert_eq!(RunSpec::from_json(OLD).unwrap(), tiny_spec());
        let written = OLD
            .replace(r#""batched":true,"#, "")
            .replace(r#""pipeline":4,"#, "");
        assert_eq!(tiny_spec().to_json(), written);
        // a spec that asked for the removed scalar route is refused
        let scalar = OLD.replace(r#""batched":true"#, r#""batched":false"#);
        assert_eq!(
            RunSpec::from_json(&scalar),
            Err(SpecError::Field("batched"))
        );
    }

    #[test]
    fn specs_written_before_the_pipeline_knob_was_removed_still_decode() {
        // `tiny_spec().to_json()` as emitted at commit dec9e3b, at the
        // default depth and with `with_pipeline(0)`
        const P4: &str = r#"{"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"389b938e81e50c5f","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
        const P0: &str = r#"{"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"897e1781610c669e","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":0,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
        // both embedded digests verify and both are the same run
        assert_eq!(RunSpec::from_json(P4).unwrap(), tiny_spec());
        assert_eq!(RunSpec::from_json(P0).unwrap(), tiny_spec());
        // the key is not written back; the digest is the default depth's
        assert_eq!(tiny_spec().to_json(), P4.replace(r#""pipeline":4,"#, ""));
        // the key still takes part in the digest it was written under
        let swapped = P0.replace(r#""pipeline":0"#, r#""pipeline":4"#);
        assert!(matches!(
            RunSpec::from_json(&swapped),
            Err(SpecError::HashMismatch { .. })
        ));
        // and a value the old decoder refused is still refused
        for bad in [
            r#""pipeline":"deep""#,
            r#""pipeline":-1"#,
            r#""pipeline":2.5"#,
        ] {
            assert_eq!(
                RunSpec::from_json(&P4.replace(r#""pipeline":4"#, bad)),
                Err(SpecError::Field("pipeline")),
                "{bad}"
            );
        }
    }

    #[test]
    fn validation_is_typed_not_panicking() {
        let mut spec = tiny_spec();
        spec.params.nx = 30;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        let mut spec = tiny_spec();
        spec.steps = 0;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        let mut spec = tiny_spec();
        spec.params.ny = 8;
        assert!(spec.validate().is_err());
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn json_and_hash_are_the_bytes_they_always_were() {
        // `to_json()` of three fixed specs as emitted at commit 65f93a6,
        // the last one before this module was lifted out of `run.rs`
        const GOLDEN: [&str; 3] = [
            r#"{"ckpt_every":0,"dt":0.0005,"forcing":{"kind":"pressure_gradient","value":1},"hash":"bcc124ef52ce7972","ic":{"amplitude":0.5,"kind":"turbulent","seed":2024},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"run","nonlinear":true,"nu":0.005555555555555556,"nx":32,"ny":65,"nz":32,"pa":1,"pb":1,"spline_order":8,"steps":1000,"stretch":2,"threads":1,"version":1}"#,
            r#"{"ckpt_every":2,"dt":0.001,"forcing":{"bulk":0.9,"kind":"mass_flux"},"hash":"c690fc46bb6862d5","ic":{"amplitude":0.25,"kind":"turbulent","seed":7},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"golden-flux","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":2,"pb":2,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#,
            r#"{"ckpt_every":5,"dt":0.0005,"forcing":{"kind":"none"},"hash":"ff04f43c5aa4ca8e","ic":{"amplitude":0.001,"kind":"seeded_transition","scale":0.6,"seed":42},"kind":"run_spec","lx":2,"lz":0.8,"name":"golden-seeded","nonlinear":true,"nu":0.005555555555555556,"nx":32,"ny":33,"nz":32,"pa":1,"pb":1,"spline_order":8,"steps":12,"stretch":1.9,"threads":2,"version":1}"#,
        ];
        let mut flux = RunSpec {
            name: "golden-flux".into(),
            params: Params::channel(16, 25, 16, 50.0)
                .with_dt(1e-3)
                .with_grid(2, 2),
            steps: 4,
            ckpt_every: 2,
            ic: InitialCondition::Turbulent {
                amplitude: 0.25,
                seed: 7,
            },
        };
        flux.params.forcing = Forcing::ConstantMassFlux { bulk: 0.9 };
        let mut seeded = RunSpec {
            name: "golden-seeded".into(),
            params: Params::channel(32, 33, 32, 180.0)
                .with_dt(5e-4)
                .with_fft_threads(2),
            steps: 12,
            ckpt_every: 5,
            ic: InitialCondition::SeededTransition {
                scale: 0.6,
                amplitude: 1e-3,
                seed: 42,
            },
        };
        seeded.params.forcing = Forcing::None;
        seeded.params.lx = 2.0;
        seeded.params.lz = 0.8;
        seeded.params.grid_stretch = 1.9;
        for (spec, golden) in [RunSpec::default(), flux, seeded].iter().zip(GOLDEN) {
            assert_eq!(spec.to_json(), golden);
            assert!(golden.contains(&format!("{:016x}", spec.spec_hash())));
            assert_eq!(&RunSpec::from_json(golden).unwrap(), spec);
        }
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn one_argv_lands_the_same_on_either_binarys_base_spec() {
        // dns-run's and dns-cli submit's starting points differ in every
        // field below; the flags given must win on both, the rest stay
        let mut run = RunSpec {
            name: "dns-run".into(),
            ..RunSpec::default()
        };
        (run.params.lx, run.params.lz, run.params.grid_stretch) = (2.0, 0.8, 1.9);
        let mut cli = RunSpec {
            name: "cli-run".into(),
            params: Params::channel(16, 25, 16, 80.0).with_dt(1e-3),
            steps: 100,
            ckpt_every: 25,
            ..RunSpec::default()
        };
        let line = "--nx 48 --ny 49 --nz 24 --re 120 --lx 3 --lz 1.5 --dt 2e-4 --stretch 1.7 \
                    --threads 0 --grid 2x3 --steps 77 --ckpt-every 11 --flux 0.7 --laminar-ic";
        for spec in [&mut run, &mut cli] {
            apply(&argv(line), spec, &[], |s| s).unwrap();
        }
        assert_eq!(
            (run.name.as_str(), cli.name.as_str()),
            ("dns-run", "cli-run")
        );
        cli.name = run.name.clone();
        assert_eq!(run, cli);
        let p = &run.params;
        assert_eq!(
            (p.nx, p.ny, p.nz, p.pa, p.pb, p.fft_threads),
            (48, 49, 24, 2, 3, 1)
        );
        assert_eq!((p.lx, p.lz, p.dt, p.grid_stretch), (3.0, 1.5, 2e-4, 1.7));
        assert_eq!((p.nu, run.steps, run.ckpt_every), (1.0 / 120.0, 77, 11));
        assert_eq!(p.forcing, Forcing::ConstantMassFlux { bulk: 0.7 });
        assert_eq!(run.ic, InitialCondition::Laminar { scale: 1.0 });
        // a flag not given leaves the base alone; the newest spelling wins
        let mut spec = tiny_spec();
        apply(
            &argv("--gradient 2 --turbulent-ic 0.1 --checkpoint-every 3"),
            &mut spec,
            &[],
            |s| s,
        )
        .unwrap();
        assert_eq!(spec.params.forcing, Forcing::PressureGradient(2.0));
        assert_eq!(
            spec.ic,
            InitialCondition::Turbulent {
                amplitude: 0.1,
                seed: 2024
            }
        );
        assert_eq!((spec.params.nx, spec.steps, spec.ckpt_every), (16, 4, 3));
    }

    #[test]
    fn argv_errors_name_the_flag_as_typed() {
        let mut spec = tiny_spec();
        let mut err = |line: &str| apply(&argv(line), &mut spec, &[], |s| s).unwrap_err();
        assert_eq!(err("--bogus 1"), "unknown argument --bogus");
        assert_eq!(err("--nx"), "--nx needs a value");
        assert_eq!(err("--ckpt-every x"), "--ckpt-every: cannot parse \"x\"");
        assert_eq!(err("--grid 2"), "--grid: expected PAxPB, got \"2\"");
        assert!(err("--spec /no/such/spec.json").starts_with("--spec: cannot read /no/such"));
    }

    #[test]
    fn usage_lists_every_row_once_and_names_the_aliases() {
        let own = [Flag::<RunSpec>("--own", "X", "a caller's row", |_, _| {
            Ok(())
        })];
        let text = usage(&own);
        assert_eq!(text.lines().count(), SPEC_FLAGS.len() + 1);
        for Flag(name, ..) in SPEC_FLAGS {
            assert_eq!(text.matches(&format!("  {name} ")).count(), 1, "{name}");
        }
        assert!(text.ends_with("  --own X                  a caller's row\n"));
        assert!(text.contains("(default off) (also --ckpt-every)\n"));
    }
}
