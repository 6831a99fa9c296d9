//! Table 3: lookup-table sizes, area, power, and access energy (paper §5.4).
//!
//! Uses the calibrated 22 nm analytic SRAM model (`cord-power`, the CACTI
//! 7.0 substitute) over the paper's provisioning.

use cord_bench::print_table;
use cord_power::{reference, table3_rows};

fn main() {
    let rows = table3_rows();
    let mut out = Vec::new();
    for unit in ["Processor", "Directory"] {
        let total_area: f64 = rows
            .iter()
            .filter(|r| r.unit == unit)
            .map(|r| r.cost.area_mm2)
            .sum();
        let total_power: f64 = rows
            .iter()
            .filter(|r| r.unit == unit)
            .map(|r| r.cost.static_power_mw)
            .sum();
        out.push(vec![
            format!("{unit} (total)"),
            String::new(),
            format!("{total_area:.3}"),
            format!("{total_power:.3}"),
            String::new(),
        ]);
        for r in rows.iter().filter(|r| r.unit == unit) {
            out.push(vec![
                format!("  {}", r.component),
                r.size.clone(),
                format!("{:.3}", r.cost.area_mm2),
                format!("{:.3}", r.cost.static_power_mw),
                format!("{:.3}/{:.3}", r.cost.read_energy_nj, r.cost.write_energy_nj),
            ]);
        }
    }
    print_table(
        "Table 3: look-up table sizes; area and power overheads (22nm)",
        &[
            "component",
            "size (entries)",
            "area mm^2",
            "power mW",
            "acc. energy r/w nJ",
        ],
        &out,
    );

    let dir_area: f64 = rows
        .iter()
        .filter(|r| r.unit == "Directory")
        .map(|r| r.cost.area_mm2)
        .sum();
    let dir_power: f64 = rows
        .iter()
        .filter(|r| r.unit == "Directory")
        .map(|r| r.cost.static_power_mw)
        .sum();
    println!(
        "\nDirectory overhead vs one host's LLC+directories ({:.3} mm^2, {:.3} mW):",
        reference::HOST_LLC_AREA_MM2,
        reference::HOST_LLC_POWER_MW
    );
    println!(
        "  area {:.2}%  power {:.2}%",
        100.0 * dir_area / reference::HOST_LLC_AREA_MM2,
        100.0 * dir_power / reference::HOST_LLC_POWER_MW
    );
    let worst = rows
        .iter()
        .map(|r| r.cost.write_energy_nj)
        .fold(0.0f64, f64::max);
    let transfer = reference::link_energy_nj(64) + reference::LLC_WRITE_64B_NJ;
    println!(
        "Dynamic energy: worst lookup {:.3} nJ vs 64B transfer+LLC write {:.3} nJ ({:.2}%)",
        worst,
        transfer,
        100.0 * worst / transfer
    );
}
