//! CI gate for multi-tenant serving: the differential-oracle grid
//! ({skipping, dense, 4-partition} × {clean, one recoverable chaos
//! schedule}) through the fleet executor, plus the
//! engine-kill ladder cell. Prints only host-independent lines, so
//! `scripts/ci.sh` byte-diffs the output across `MAPLE_JOBS` values;
//! any isolation violation or unverified request exits nonzero. It
//! takes no arguments: any argument prints the usage line and exits 2.

use maple_bench::serving::serve_gate;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: serve_check");
        std::process::exit(2);
    }
    match serve_gate(0x5E12E) {
        Ok(report) => println!("{report}"),
        Err(msg) => {
            eprintln!("[serve_check] SERVING ORACLE FAILURE\n{msg}");
            std::process::exit(1);
        }
    }
}
