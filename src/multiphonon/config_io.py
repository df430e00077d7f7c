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
from types import SimpleNamespace

from ._tables import _BOUNDS, _MODE_ROWS, _ZPL_ENERGY_MEV
from .errors import ConfigSyntaxError, ConfigValidationError, DomainError, _label, _number

# The schema: JSON key -> attribute of DefectConfiguration / VibrationalMode.
# Numeric attributes take their bounds from ``_tables._BOUNDS``; the others
# are labels (non-empty strings) or the mode list.  Only the parser builds
# those classes, so only it imports ``modes`` (and with it ``dataclasses``).
_CONFIG_SCHEMA = {
    "variant_label": "variant_label",
    "zpl_energy_mev": "zpl_energy",
    "modes": "modes",
}
_MODE_SCHEMA = {
    "label": "label",
    "hbar_omega_g_mev": "energy_ground",
    "hbar_omega_e_mev": "energy_excited",
    "delta_q": "displacement",
    "w_eg": "coupling",
}


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
    raise ConfigValidationError(f"{message}{suffix}", key_path=key_path, line=line)


def _fields(document, data, schema, prefix, occurrence):
    """Validate one JSON object against *schema*; its fields by attribute name.

    The ``modes`` list is left to the caller.
    """
    for key in data.duplicates:
        _fail(document, f"duplicate key {prefix}{key}", f"{prefix}{key}", key, occurrence + 1)
    for key in data:
        if key not in schema:
            _fail(document, f"unknown key {prefix}{key}", f"{prefix}{key}", key, occurrence)
    for key in schema:
        if key not in data:
            _fail(document, f"required key {prefix}{key} is missing", f"{prefix}{key}")
    values = {}
    for key, attribute in schema.items():
        if attribute == "modes":
            continue
        path, value = f"{prefix}{key}", data[key]
        try:
            values[attribute] = (
                _number(value, path, **_BOUNDS[attribute]) if attribute in _BOUNDS
                else _label(value, path)
            )
        except DomainError as exc:
            _fail(document, str(exc), path, key, occurrence)
    return values


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
    from .modes import DefectConfiguration, VibrationalMode

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
    values = _fields(document, data, _CONFIG_SCHEMA, "", 1)
    raw_modes = data["modes"]
    if not isinstance(raw_modes, list) or not raw_modes:
        _fail(document, "modes must be a non-empty list of mode objects", "modes", "modes")
    modes = []
    for index, entry in enumerate(raw_modes):
        path = f"modes[{index}]"
        if not isinstance(entry, dict):
            _fail(document, f"{path} must be an object, got {entry!r}", path, "modes")
        modes.append(VibrationalMode(**_fields(document, entry, _MODE_SCHEMA, f"{path}.", index + 1)))
    labels = [mode.label for mode in modes]
    if len(set(labels)) != len(labels):
        _fail(document, f"mode labels must be unique, got {labels}", "modes", "modes")
    return DefectConfiguration(modes=tuple(modes), **values)


def _write_config(documents):
    """The config writer: one configuration, or a list of them as an array.

    Fields follow the schema tables.  Numbers are rendered by ``str`` (of a
    float, ``repr``'s digits; a stored decimal string passes through) and
    labels are JSON-quoted; the layout is that of ``json.dumps(indent=2)``.
    """

    def fields(source, schema):
        return {
            key: [fields(mode, _MODE_SCHEMA) for mode in source.modes] if attribute == "modes"
            else str(getattr(source, attribute)) if attribute in _BOUNDS
            else json.dumps(getattr(source, attribute))
            for key, attribute in schema.items()
        }

    def layout(value, pad):
        if isinstance(value, str):
            return value
        inner = pad + "  "
        if isinstance(value, list):
            items = [inner + layout(item, inner) for item in value]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        items = [f"{inner}{json.dumps(key)}: {layout(item, inner)}" for key, item in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"

    if isinstance(documents, list):
        return layout([fields(doc, _CONFIG_SCHEMA) for doc in documents], "") + "\n"
    return layout(fields(documents, _CONFIG_SCHEMA), "") + "\n"


def serialize_defect_config(config):
    """Render a configuration back to the document format.

    Parsing the output reproduces the input configuration exactly (float
    values round-trip through ``repr``).
    """
    return _write_config(config)


def configurations_config_json():
    """Both parameterized variants of the reference dataset in the config format.

    The document is a JSON array of configuration objects.  It is built
    from the stored decimal strings (not floats) so every number appears
    digit for digit as in the source dataset.
    """
    documents = [
        SimpleNamespace(
            variant_label=label,
            zpl_energy=_ZPL_ENERGY_MEV,
            modes=[SimpleNamespace(**dict(zip(_MODE_SCHEMA.values(), row))) for row in rows],
        )
        for label, rows in _MODE_ROWS.items()
    ]
    return _write_config(documents)
