//! How every binary of the workspace reads its command line: a
//! [`Command`] is a table of [`Flag`] rows, one loop
//! ([`Command::apply`]) parses argv against it and one renderer
//! ([`Command::help`]) prints it as `--help`, so a binary's parser and its
//! help cannot drift apart. A binary that describes a run also takes the
//! shared run-description rows, [`SPEC_FLAGS`].

use std::fmt::Write as _;

use crate::spec::{RunSpec, SPEC_FLAGS};

/// One command-line argument of a `T`, written as a table row: the flag as
/// typed (`--nx`), its value placeholder for the help (empty: the flag
/// takes no value), the help text, and the setter that stores the value
/// on the target (a flag without one is handed itself). A row whose name
/// does not start with `-` takes the positional arguments, one call each.
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

/// The setter of a switch: the flag turns `slot` on.
pub fn on(slot: &mut bool) -> Result<(), String> {
    *slot = true;
    Ok(())
}

/// Older spellings [`Command::apply`] still accepts: `(alias, row name)`.
const ALIASES: &[(&str, &str)] = &[("--ckpt-every", "--checkpoint-every"), ("-h", "--help")];

/// The row every command ends with; [`Command::apply`] answers it.
const HELP: Flag<()> = Flag("--help", "", "print this help and exit", |_, _| Ok(()));

/// One binary's command line.
pub struct Command<'a, T> {
    /// The binary's name, which starts its help and every argument error.
    pub name: &'a str,
    /// What `--help` prints after `NAME: ` above the rows (and their heading).
    pub about: &'a str,
    /// The binary's own rows.
    pub flags: &'a [Flag<T>],
    /// Where the rows of [`SPEC_FLAGS`] write, for a binary that takes a
    /// run description (they are listed before its own rows).
    pub spec: Option<fn(&mut T) -> &mut RunSpec>,
}

impl<T> Command<'_, T> {
    /// The only argv loop: set every argument of `argv` (the program name
    /// excluded) on `target`. `Ok(true)` means `--help` was asked for,
    /// and the arguments after it were not read.
    pub fn apply(&self, argv: &[String], target: &mut T) -> Result<bool, String> {
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let alias = ALIASES.iter().find(|a| a.0 == arg);
            let name = alias.map_or(arg.as_str(), |a| a.1);
            if name == HELP.0 {
                return Ok(true);
            }
            let flag = arg.starts_with('-');
            // a switch is handed itself, and so is a positional argument
            let mut value = |placeholder: &str| match flag && !placeholder.is_empty() {
                true => args.next().ok_or(format!("{arg} needs a value")),
                false => Ok(arg),
            };
            let own = self.flags.iter().find(|f| match flag {
                true => f.0 == name,
                false => !f.0.starts_with('-'),
            });
            let shared = SPEC_FLAGS.iter().find(|f| f.0 == name);
            let set = match (own, shared, self.spec) {
                (Some(f), ..) => (f.3)(target, value(f.1)?),
                (None, Some(f), Some(spec_of)) => (f.3)(spec_of(target), value(f.1)?),
                _ => return Err(format!("unknown argument {arg}")),
            };
            set.map_err(|e| format!("{arg}: {e}"))?;
        }
        Ok(false)
    }

    /// The only help renderer: `NAME: about`, then one line per row — the
    /// run-description rows first when the command takes them — and the
    /// `--help` row last.
    pub fn help(&self) -> String {
        fn rows<T>(out: &mut String, flags: &[Flag<T>]) {
            for Flag(name, value, help, _) in flags {
                let _ = write!(out, "  {:<24} {help}", format!("{name} {value}"));
                for (alias, _) in ALIASES.iter().filter(|a| a.1 == *name) {
                    let _ = write!(out, " (also {alias})");
                }
                out.push('\n');
            }
        }
        let mut out = format!("{}: {}", self.name, self.about);
        if self.spec.is_some() {
            rows(&mut out, SPEC_FLAGS);
        }
        rows(&mut out, self.flags);
        rows(&mut out, &[HELP]);
        out
    }

    /// Read the process's arguments onto `target` and hand it to
    /// `finish`, which checks what no single row can and resolves what
    /// depends on several. `--help` prints the help and exits 0; an error
    /// from either step prints `NAME: error` with a pointer to `--help`
    /// and exits 2.
    pub fn parse<U>(&self, mut target: T, finish: impl FnOnce(T) -> Result<U, String>) -> U {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match self.apply(&argv, &mut target) {
            Ok(true) => {
                print!("{}", self.help());
                std::process::exit(0)
            }
            Ok(false) => finish(target).unwrap_or_else(|e| self.fail(&e)),
            Err(e) => self.fail(&e),
        }
    }

    fn fail(&self, e: &str) -> ! {
        let name = self.name;
        eprintln!("{name}: {e}\n(run {name} --help for the flag reference)");
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Target {
        spec: RunSpec,
        level: u32,
        loud: bool,
        words: Vec<String>,
    }

    #[rustfmt::skip]
    const ROWS: &[Flag<Target>] = &[
        Flag("--level", "N", "a valued row", |t, v| put(&mut t.level, v)),
        Flag("--loud", "", "a switch", |t, _| on(&mut t.loud)),
        Flag("WORD", "", "the positional arguments", |t, v| {
            t.words.push(v.into());
            Ok(())
        }),
    ];

    fn command(spec: bool) -> Command<'static, Target> {
        Command {
            name: "demo",
            about: "a test command\n\nflags:\n",
            flags: ROWS,
            spec: spec.then_some(|t: &mut Target| &mut t.spec),
        }
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rows_switches_words_and_shared_rows_land_on_the_target() {
        let mut t = Target::default();
        let line = "first --level 7 --nx 48 second --loud --ckpt-every 3";
        assert_eq!(command(true).apply(&argv(line), &mut t), Ok(false));
        assert_eq!(
            (t.level, t.loud, t.words.join(" ")),
            (7, true, "first second".into())
        );
        assert_eq!((t.spec.params.nx, t.spec.ckpt_every), (48, 3));
        // a value that looks like a flag is still the flag's value
        assert_eq!(
            command(false)
                .apply(&argv("--level -1"), &mut t)
                .unwrap_err(),
            "--level: cannot parse \"-1\""
        );
    }

    #[test]
    fn errors_name_the_argument_as_typed() {
        let mut t = Target::default();
        let mut err = |line: &str| command(true).apply(&argv(line), &mut t).unwrap_err();
        assert_eq!(err("--bogus 1"), "unknown argument --bogus");
        assert_eq!(err("--nx"), "--nx needs a value");
        assert_eq!(err("--ckpt-every x"), "--ckpt-every: cannot parse \"x\"");
        assert_eq!(err("--grid 2"), "--grid: expected PAxPB, got \"2\"");
        assert!(err("--spec /no/such/spec.json").starts_with("--spec: cannot read /no/such"));
        // the shared rows belong only to a command that takes a spec
        let mut t = Target::default();
        let err = command(false).apply(&argv("--nx 48"), &mut t).unwrap_err();
        assert_eq!(err, "unknown argument --nx");
    }

    #[test]
    fn help_stops_the_loop_before_a_later_error() {
        let mut t = Target::default();
        for line in ["--help --bogus", "--level 2 -h"] {
            assert_eq!(command(false).apply(&argv(line), &mut t), Ok(true));
        }
        assert!(command(false)
            .apply(&argv("--bogus --help"), &mut t)
            .is_err());
    }

    #[test]
    fn help_lists_every_row_once_and_names_the_aliases() {
        let text = command(true).help();
        assert!(text.starts_with("demo: a test command\n\nflags:\n  --spec FILE.json"));
        assert_eq!(text.lines().count(), 3 + SPEC_FLAGS.len() + ROWS.len() + 1);
        for Flag(name, ..) in SPEC_FLAGS.iter() {
            assert_eq!(text.matches(&format!("  {name} ")).count(), 1, "{name}");
        }
        assert!(text.contains("  --level N                a valued row\n"));
        assert!(text.contains("(default off) (also --ckpt-every)\n"));
        assert!(text.ends_with("  --help                   print this help and exit (also -h)\n"));
        assert!(!command(false).help().contains("--spec"));
    }
}
