"""Defect configuration files: a strict JSON schema with unit-bearing keys.

A configuration document is a JSON object::

    {
      "variant_label": "natural",
      "zpl_energy_mev": 935,
      "modes": [
        {"label": "accepting", "hbar_omega_g_mev": 33.0,
         "hbar_omega_e_mev": 33.0, "delta_q": 0.734, "w_eg": 9.23}
      ]
    }

Unknown and duplicate keys are rejected; every validation message names
the offending key path and (best effort) its line in the source text.
"""

import json
import math

from .errors import ConfigSyntaxError, ConfigValidationError
from .modes import DefectConfiguration, VibrationalMode

_TOP_LEVEL_KEYS = ("variant_label", "zpl_energy_mev", "modes")
_MODE_KEYS = ("label", "hbar_omega_g_mev", "hbar_omega_e_mev", "delta_q", "w_eg")


class _JSONObject(dict):
    """A decoded JSON object that remembers the keys it holds more than once."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.duplicates = []
        seen = set()
        for key, _ in pairs:
            if key in seen:
                self.duplicates.append(key)
            seen.add(key)


def _reject_duplicates(document, data, path, occurrence):
    for key in data.duplicates:
        _fail(document, "duplicate key", f"{path}{key}", key, occurrence + 1)


def _key_line(document, key, occurrence=1):
    """Best-effort line number of the *occurrence*-th appearance of a key."""
    needle = f'"{key}"'
    position = -1
    for _ in range(occurrence):
        position = document.find(needle, position + 1)
        if position == -1:
            return None
    return document.count("\n", 0, position) + 1


def _fail(document, message, key_path, key=None, occurrence=1):
    line = _key_line(document, key, occurrence) if key else None
    suffix = f" (line {line})" if line is not None else ""
    raise ConfigValidationError(f"{key_path}: {message}{suffix}", key_path=key_path, line=line)


def _require_number(document, value, key_path, key, occurrence, positive=False, non_negative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(document, f"must be a number, got {value!r}", key_path, key, occurrence)
    if not math.isfinite(value):
        _fail(document, f"must be finite, got {value!r}", key_path, key, occurrence)
    if positive and value <= 0:
        _fail(document, f"must be positive, got {value!r}", key_path, key, occurrence)
    if non_negative and value < 0:
        _fail(document, f"must be non-negative, got {value!r}", key_path, key, occurrence)
    return float(value)


def parse_defect_config(document):
    """Parse and validate a configuration document.

    Parameters
    ----------
    document : str
        JSON text in the schema above.

    Returns
    -------
    DefectConfiguration

    Raises
    ------
    ConfigSyntaxError
        Malformed JSON, with position.
    ConfigValidationError
        Schema violations, naming the offending key.
    """
    try:
        data = json.loads(document, object_pairs_hook=_JSONObject)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc

    if not isinstance(data, dict):
        raise ConfigValidationError("top level must be a JSON object", key_path="<root>")
    _reject_duplicates(document, data, "", 1)
    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            _fail(document, "unknown key", key, key)
    for key in _TOP_LEVEL_KEYS:
        if key not in data:
            raise ConfigValidationError(f"{key}: required key is missing", key_path=key)

    label = data["variant_label"]
    if not isinstance(label, str) or not label:
        _fail(document, f"must be a non-empty string, got {label!r}", "variant_label", "variant_label")
    zpl = _require_number(
        document, data["zpl_energy_mev"], "zpl_energy_mev", "zpl_energy_mev", 1, positive=True
    )

    raw_modes = data["modes"]
    if not isinstance(raw_modes, list) or not raw_modes:
        _fail(document, "must be a non-empty list of mode objects", "modes", "modes")
    modes = []
    for index, entry in enumerate(raw_modes):
        path = f"modes[{index}]"
        occurrence = index + 1
        if not isinstance(entry, dict):
            _fail(document, f"must be an object, got {entry!r}", path, "modes")
        _reject_duplicates(document, entry, f"{path}.", occurrence)
        for key in entry:
            if key not in _MODE_KEYS:
                _fail(document, "unknown key", f"{path}.{key}", key, occurrence)
        for key in _MODE_KEYS:
            if key not in entry:
                raise ConfigValidationError(
                    f"{path}.{key}: required key is missing", key_path=f"{path}.{key}"
                )
        mode_label = entry["label"]
        if not isinstance(mode_label, str) or not mode_label:
            _fail(document, f"must be a non-empty string, got {mode_label!r}",
                  f"{path}.label", "label", occurrence)
        omega_g = _require_number(document, entry["hbar_omega_g_mev"],
                                  f"{path}.hbar_omega_g_mev", "hbar_omega_g_mev",
                                  occurrence, positive=True)
        omega_e = _require_number(document, entry["hbar_omega_e_mev"],
                                  f"{path}.hbar_omega_e_mev", "hbar_omega_e_mev",
                                  occurrence, positive=True)
        delta_q = _require_number(document, entry["delta_q"],
                                  f"{path}.delta_q", "delta_q", occurrence)
        w_eg = _require_number(document, entry["w_eg"],
                               f"{path}.w_eg", "w_eg", occurrence, non_negative=True)
        modes.append(
            VibrationalMode(
                label=mode_label,
                energy_ground=omega_g,
                energy_excited=omega_e,
                displacement=delta_q,
                coupling=w_eg,
            )
        )
    labels = [mode.label for mode in modes]
    if len(set(labels)) != len(labels):
        _fail(document, f"mode labels must be unique, got {labels}", "modes", "modes")
    return DefectConfiguration(variant_label=label, zpl_energy=zpl, modes=tuple(modes))


def serialize_defect_config(config):
    """Render a configuration back to the document format.

    Parsing the output reproduces the input configuration exactly (float
    values round-trip through ``repr``).
    """
    payload = {
        "variant_label": config.variant_label,
        "zpl_energy_mev": config.zpl_energy,
        "modes": [
            {
                "label": mode.label,
                "hbar_omega_g_mev": mode.energy_ground,
                "hbar_omega_e_mev": mode.energy_excited,
                "delta_q": mode.displacement,
                "w_eg": mode.coupling,
            }
            for mode in config.modes
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
