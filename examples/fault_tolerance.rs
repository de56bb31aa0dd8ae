//! Fault-tolerance demo: servers die mid-run and the system keeps
//! answering — the agent's ranked candidate list plus client failover and
//! failure reporting in action.
//!
//! Run with: `cargo run --example fault_tolerance`

use netsolve::core::DataObject;
use netsolve::testbed::InProcessDomain;

fn main() -> netsolve::core::Result<()> {
    let domain = InProcessDomain::start(&[("alpha", 500.0), ("beta", 300.0), ("gamma", 100.0)])?;
    let client = domain.client();

    let solve = |tag: &str| -> netsolve::core::Result<()> {
        let (out, report) =
            client.netsl_timed("dnrm2", &[DataObject::Vector(vec![3.0, 4.0])])?;
        println!(
            "{tag}: ||[3,4]|| = {} via {} (attempt {} of the candidate list)",
            out[0].as_double()?,
            report.server_address,
            report.attempts
        );
        Ok(())
    };

    println!("all three servers healthy:");
    solve("  call 1")?;

    println!("\nkilling the fastest server (alpha)...");
    domain.transport().kill("srv0");
    solve("  call 2")?; // fails over transparently
    solve("  call 3")?; // second failure marks alpha down at the agent

    println!("\nafter the agent marked alpha down, calls go straight to beta:");
    solve("  call 4")?;

    println!("\nkilling beta too...");
    domain.transport().kill("srv1");
    solve("  call 5")?;
    solve("  call 6")?;

    println!("\nonly gamma (the slowest box) is left — still answering:");
    solve("  call 7")?;

    println!("\nreviving alpha...");
    domain.transport().revive("srv0");
    // The agent keeps alpha excluded until the fault cooldown expires; in
    // a long-running domain it would probe back in automatically. We just
    // show the domain keeps working either way.
    solve("  call 8")?;

    println!("\nevery call succeeded despite two of three servers dying.");
    Ok(())
}
