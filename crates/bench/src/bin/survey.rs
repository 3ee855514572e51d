//! Prints the §2 classification-survey statistics from the literature
//! registry: device counts by transduction principle and the shares of
//! nanomaterial-enhanced and electrochemical devices.
//!
//! Usage: `cargo run -p bios-bench --bin survey`

// A CLI binary reports on stdout by design.
#![allow(clippy::print_stdout)]

fn main() {
    print!("{}", bios_bench::render_survey());
}
