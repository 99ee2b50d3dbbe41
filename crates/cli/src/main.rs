//! The `coevo` binary.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = coevo_cli::run(&args, &mut std::io::stdout().lock(), &mut std::io::stderr());
    std::process::exit(code);
}
