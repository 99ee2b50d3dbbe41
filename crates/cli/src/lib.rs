//! # coevo-cli — the `coevo` command-line tool
//!
//! The subcommands, their flags and their usage text live in one table,
//! [`args::SPECS`]; `coevo help` prints it and `coevo <sub> --help` prints
//! one subcommand's block.

#![warn(missing_docs)]

pub mod args;
mod commands;

use std::io::Write;

/// Entry point shared by the binary and the tests: run the command line
/// `argv` (without the program name), writing human output to `out` and
/// errors to `err`. Returns the process exit code: 2 for a rejected command
/// line (the message goes to `err` and `out` stays empty), 1 for a failed
/// command (`error: …` on `err`), 0 otherwise.
pub fn run<S: AsRef<str>>(argv: &[S], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let argv: Vec<&str> = argv.iter().map(AsRef::as_ref).collect();
    let args = match args::parse(&argv) {
        Ok(args::Parsed::Run(args)) => args,
        Ok(args::Parsed::Help(text)) => {
            let _ = writeln!(out, "{text}");
            return 0;
        }
        Err(e) => {
            let _ = writeln!(err, "{e}");
            return 2;
        }
    };
    match (args.spec().run)(&args, out) {
        Ok(()) => 0,
        Err(e) if e.is::<args::Usage>() => {
            let _ = writeln!(err, "{e}");
            2
        }
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            1
        }
    }
}
