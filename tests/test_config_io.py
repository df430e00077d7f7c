import json

import pytest

from multiphonon import (
    ConfigSyntaxError,
    ConfigValidationError,
    configurations_config_json,
    parse_defect_config,
    serialize_defect_config,
)

NATURAL_DOC = """{
  "variant_label": "natural",
  "zpl_energy_mev": 935,
  "modes": [
    {
      "label": "accepting",
      "hbar_omega_g_mev": 33.0,
      "hbar_omega_e_mev": 33.0,
      "delta_q": 0.734,
      "w_eg": 9.23
    },
    {
      "label": "ch-stretch",
      "hbar_omega_g_mev": 359,
      "hbar_omega_e_mev": 358,
      "delta_q": 0.001,
      "w_eg": 0.58
    }
  ]
}"""


def test_parse_matches_embedded_dataset(natural):
    assert parse_defect_config(NATURAL_DOC) == natural


def test_parse_serialize_parse_is_identity():
    config = parse_defect_config(NATURAL_DOC)
    text = serialize_defect_config(config)
    assert parse_defect_config(text) == config
    # and once more, byte-stable
    assert serialize_defect_config(parse_defect_config(text)) == text


def test_dataset_export_round_trips(natural, deuterium):
    documents = json.loads(configurations_config_json())
    assert parse_defect_config(json.dumps(documents[0])) == natural
    assert parse_defect_config(json.dumps(documents[1])) == deuterium


def test_missing_required_key_names_it():
    doc = json.loads(NATURAL_DOC)
    del doc["zpl_energy_mev"]
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(json.dumps(doc))
    assert "zpl_energy_mev" in str(excinfo.value)


def test_negative_mode_energy_names_key_and_line():
    bad = NATURAL_DOC.replace('"hbar_omega_g_mev": 359', '"hbar_omega_g_mev": -359')
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(bad)
    message = str(excinfo.value)
    assert "modes[1].hbar_omega_g_mev" in message
    assert excinfo.value.line == bad[: bad.index("-359")].count("\n") + 1
    assert "line" in message


def test_unknown_top_level_key_rejected():
    doc = json.loads(NATURAL_DOC)
    doc["temperature_k"] = 4.2
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(json.dumps(doc))
    assert "temperature_k" in str(excinfo.value)


def test_unknown_mode_key_rejected():
    doc = json.loads(NATURAL_DOC)
    doc["modes"][0]["anharmonicity"] = 0.1
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(json.dumps(doc))
    assert "modes[0].anharmonicity" in str(excinfo.value)


def test_syntax_error_carries_position():
    with pytest.raises(ConfigSyntaxError) as excinfo:
        parse_defect_config('{"variant_label": "x",\n  "zpl_energy_mev": }')
    assert excinfo.value.line == 2
    assert excinfo.value.column is not None


def test_non_object_document_rejected():
    with pytest.raises(ConfigValidationError):
        parse_defect_config("[1, 2, 3]")


def test_boolean_is_not_a_number():
    doc = json.loads(NATURAL_DOC)
    doc["zpl_energy_mev"] = True
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(json.dumps(doc))
    assert "zpl_energy_mev" in str(excinfo.value)


def test_non_finite_number_rejected():
    bad = NATURAL_DOC.replace('"delta_q": 0.734', '"delta_q": NaN')
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(bad)
    assert "delta_q" in str(excinfo.value)


def test_empty_modes_rejected():
    doc = json.loads(NATURAL_DOC)
    doc["modes"] = []
    with pytest.raises(ConfigValidationError):
        parse_defect_config(json.dumps(doc))


def test_duplicate_mode_labels_rejected():
    doc = json.loads(NATURAL_DOC)
    doc["modes"][1]["label"] = "accepting"
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(json.dumps(doc))
    assert "unique" in str(excinfo.value)


def test_duplicate_top_level_key_rejected():
    bad = NATURAL_DOC.replace(
        '"zpl_energy_mev": 935,', '"zpl_energy_mev": 935,\n  "zpl_energy_mev": 940,'
    )
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(bad)
    assert excinfo.value.key_path == "zpl_energy_mev"
    assert "duplicate" in str(excinfo.value)
    assert excinfo.value.line == bad[: bad.index("940")].count("\n") + 1


def test_duplicate_mode_key_rejected():
    bad = NATURAL_DOC.replace('"w_eg": 0.58', '"w_eg": 0.58,\n      "w_eg": 0.7')
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_defect_config(bad)
    assert excinfo.value.key_path == "modes[1].w_eg"
    assert "duplicate" in str(excinfo.value)
    assert excinfo.value.line == bad[: bad.index("0.7\n")].count("\n") + 1
