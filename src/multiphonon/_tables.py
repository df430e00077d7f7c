"""Plain-data tables: the embedded reference dataset, field bounds, sweep names.

Imports nothing, so the CLI reads them without loading ``modes`` and with
it ``dataclasses``; ``modes`` re-exports the public names.
"""

# Configuration parameters a rate sweep can vary, and its CSV header.
SWEEP_PARAMETERS = ("zpl_energy", "displacement", "coupling", "energy_ground")

SWEEP_CSV_HEADER = "parameter,value,rate_per_s,n_max,sigma_meV"


# Bounds of the numeric configuration fields, by attribute; the config
# schema in ``config_io`` validates its keys against the same table.
_BOUNDS = {
    "zpl_energy": {"gt": 0.0},
    "energy_ground": {"gt": 0.0},
    "energy_excited": {"gt": 0.0},
    "displacement": {},
    "coupling": {"ge": 0.0},
}


# The embedded reference dataset.  Decimal strings are kept verbatim so that
# CSV/config exports reproduce them exactly.  The natural variant is the
# shift reference (blank shift).
_RECORD_ROWS = (
    # label, (C_S, C_W, H), shift, lifetime, lifetime error  [µeV, µs, µs]
    ("natural", (12, 12, 1), "", "0.885", "0.004"),
    ("strong-13c", (13, 12, 1), "+78.04", "0.904", "0.001"),
    ("weak-13c", (12, 13, 1), "-3.47", "0.921", "0.001"),
    ("double-13c", (13, 13, 1), "+75.28", "0.929", "0.001"),
    ("deuterium", (12, 12, 2), "+745", "4.807", "0.018"),
)

_ZPL_ENERGY_MEV = "935"

# label -> (mode label, ħΩ_g, ħΩ_e, ΔQ, W) as printed, in the field order
# of VibrationalMode and of the config schema
_MODE_ROWS = {
    "natural": (
        ("accepting", "33.0", "33.0", "0.734", "9.23"),
        ("ch-stretch", "359", "358", "0.001", "0.58"),
    ),
    "deuterium": (
        ("accepting", "33.0", "33.0", "0.734", "9.23"),
        ("ch-stretch", "263", "262", "0.002", "0.70"),
    ),
}

RECORDS_CSV_HEADER = "variant,c_s,c_w,h,zpl_shift_uev,lifetime_us,lifetime_err_us"


def reference_records_csv():
    """The five measured records as CSV, decimals exactly as in the source."""
    lines = [RECORDS_CSV_HEADER]
    for label, structure, shift, lifetime, err in _RECORD_ROWS:
        c_s, c_w, h = structure
        lines.append(f"{label},{c_s},{c_w},{h},{shift},{lifetime},{err}")
    return "\n".join(lines) + "\n"
