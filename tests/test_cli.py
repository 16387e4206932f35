"""The command-line surface, exercised through real subprocesses, and in
process where a test patches a loader."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from qcheque.adversary import AMOUNT_UNITS
from qcheque import cli
from qcheque.cli import main
from qcheque.protocol import QuantumCheque, encode_amount

BASE = [sys.executable, "-m", "qcheque"]
FAST = ["--l", "2", "--n", "2", "--key-bits", "64", "--serial-bits", "64"]


# sha256 of the stdout of each command below (and of the scenario file
# `snapshot` writes), recorded before measurement shared one collapse
# kernel in the simulator.  Any change to a drawn sample, a verdict or a
# stored amplitude shows here.  clone-double-spend was re-pinned when its
# oracle became closed-form: only its predicted rates moved, in the last
# digit.
PINNED_OUTPUT_DIGESTS = {
    "run-honest": "1b0039c9e4082e6fcfa37094ad0af8efc75fc97b797f04fa451ff2ae119b01b8",
    "replay": "4ba919edc05d37b27f69e75110dc7ad351323fb627bade75aa8e0f01f7148042",
    "clone-double-spend": "5422da49cb3f1d17c204f95f8c455cae7e9dc0e30fafceb243bcca078a40ab2f",
    "tamper-amount": "cf9aa783254cc58e2543871d8e34e36b41da7efc27fafaaf79f5a4a1dd7bcf32",
    "forge-key-guess": "4d3b14e0933ade932abf28a79e592d8a32bf6ebcc293ce2daeb7eb2091878f70",
    "local-tamper": "b3df6e0a1a232a2cc41934964e857ea0b683984595d66ef7c597effa3ae14474",
    "snapshot": "7c549f43cfec61e16cee7e0356f1e10bca7c5fa0dc53db32a12b879fbbd92b62",
    "snapshot l=8 n=8": "cc233597bf67f60c8ba920390d42efea9427201144d64c228900881acfa2e3c1",
    "run-honest l=8 n=8": "7be98e69ecc84b27bcd230b3d8f52e396287c6e481e2c745dd4b62ab1f504370",
    "clone-double-spend l=8 n=3": "1952152a125255533167d331f8a635166d130be8839542534d8989a098b0995d",
    "clone-double-spend l=2 n=6": "b7ad5d90d1df1264f3257849cb03d7f2ba4110faafb8b901035d038e773d9213",
}
# The pins at the benchmark's widths, each as its command and sizes: an
# honest deposit's 8-pair authentication test, the entangled blocks of a
# cloned cheque's tests, a cloned authentication test whose group would
# hold 4 * 6 = 24 qubits, the ceiling, and the issuer's registers at the
# paper's l=8, n=8.
WIDE_PINS = {
    "snapshot l=8 n=8": ("snapshot", ["--l", "8", "--n", "8"]),
    "run-honest l=8 n=8": ("run-honest", ["--l", "8", "--n", "8"]),
    "clone-double-spend l=8 n=3": (
        "clone-double-spend", ["--l", "8", "--n", "3", "--key-bits", "64", "--serial-bits", "64"]),
    "clone-double-spend l=2 n=6": (
        "clone-double-spend", ["--l", "2", "--n", "6", "--key-bits", "64", "--serial-bits", "64"]),
}


def run_cli(*args, cwd=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=120, cwd=cwd
    )


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUT_DIGESTS))
def test_fixed_seed_output_bytes_are_pinned(command, tmp_path):
    name, sizes = WIDE_PINS.get(command, (command, FAST))
    if name == "snapshot":
        scenario = tmp_path / "scenario.json"
        proc = run_cli("snapshot", *sizes, "--seed", "9", "--snapshot", str(scenario))
        output = scenario.read_bytes()  # the summary echoes the path; hash the file
    elif name == "run-honest":
        proc = run_cli("run-honest", *sizes, "--trials", "10", "--seed", "11")
        output = proc.stdout.encode()
    else:
        key_bits = ["--key-bits", "8"] if command == "forge-key-guess" else []
        proc = run_cli("attack", "--strategy", name, *sizes, *key_bits,
                       "--trials", "10", "--seed", "11")
        output = proc.stdout.encode()
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(output).hexdigest() == PINNED_OUTPUT_DIGESTS[command]


def test_run_honest_report():
    proc = run_cli("run-honest", *FAST, "--trials", "20", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["format"] == "qcheque-report"
    assert doc["status"] == "PASS"
    assert doc["within_4_sigma"] is True
    assert doc["stats"]["successes"] == 20
    assert doc["config"]["trials"] == 20
    assert "elapsed" in proc.stderr


def test_reports_are_byte_identical_across_runs():
    args = ("run-honest", *FAST, "--trials", "10", "--seed", "6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("run-honest", *FAST, "--trials", "5", "--seed", "7",
                   "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


def test_attack_replay_report():
    proc = run_cli("attack", "--strategy", "replay", *FAST,
                   "--trials", "15", "--seed", "8")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["stats"]["strategy"] == "replay"
    assert doc["stats"]["successes"] == 0
    assert doc["within_4_sigma"] is True


def test_snapshot_restore_round_trip(tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    original = scenario.read_text()
    doc = json.loads(original)
    assert doc["format"] == "qcheque-scenario"

    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 0, proc.stderr
    assert resaved.read_text() == original
    summary = json.loads(proc.stdout)
    assert summary["cheque_serial"] == doc["cheque"]["serial"]
    assert summary["live_qubits"] > 0


def test_corrupt_snapshot_reports_offset(tmp_path):
    scenario = tmp_path / "broken.json"
    scenario.write_text('{"format": "qcheque-scenario", ')
    proc = run_cli("restore", "--snapshot", str(scenario))
    assert proc.returncode == 3
    assert "byte offset" in proc.stderr


def test_wrong_document_type_is_a_file_error(tmp_path):
    scenario = tmp_path / "other.json"
    scenario.write_text('{"format": "something-else", "version": 1}')
    proc = run_cli("restore", "--snapshot", str(scenario))
    assert proc.returncode == 3


def test_norm_broken_snapshot_is_a_file_error(tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(scenario.read_text())
    group = doc["world"]["groups"][0]
    group["amplitudes"] = [[2 * re, 2 * im] for re, im in group["amplitudes"]]
    scenario.write_text(json.dumps(doc))
    proc = run_cli("restore", "--snapshot", str(scenario))
    assert proc.returncode == 3, proc.stderr
    assert "norm" in proc.stderr


@pytest.mark.parametrize("where", ["whole file", "inside config"])
def test_deeply_nested_snapshot_is_a_file_error(where, tmp_path):
    # nesting past the recursion limit: the parser raises RecursionError,
    # not a JSON decode error
    scenario = tmp_path / "scenario.json"
    nested = "[" * 100_000 + "]" * 100_000
    if where == "whole file":
        scenario.write_text(nested)
    else:
        proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
        assert proc.returncode == 0, proc.stderr
        text = scenario.read_text()
        scenario.write_text(text.replace('"config": {', f'"config": {{"nested": {nested}, ', 1))
    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 3, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not resaved.exists()


def test_missing_snapshot_file(tmp_path):
    proc = run_cli("restore", "--snapshot", str(tmp_path / "absent.json"))
    assert proc.returncode == 3


def test_unknown_strategy_is_usage_error():
    proc = run_cli("attack", "--strategy", "bribe-the-teller", "--trials", "1")
    assert proc.returncode == 2


def test_removed_kappa1_flag_is_usage_error():
    proc = run_cli("run-honest", "--kappa1", "0.9", "--trials", "1")
    assert proc.returncode == 2


def test_invalid_scheme_params_are_usage_errors():
    proc = run_cli("run-honest", "--l", "0", "--trials", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_selftest_passes():
    proc = run_cli("selftest", "--seed", "3")
    assert proc.returncode == 0, proc.stdout
    doc = json.loads(proc.stdout)
    assert all(check["passed"] for check in doc["checks"])


def test_selftest_fails_when_a_cheque_does_not_re_save(monkeypatch, capsys):
    load = QuantumCheque.from_json
    monkeypatch.setattr(
        QuantumCheque, "from_json",
        staticmethod(lambda doc: replace(load(doc), amount=encode_amount(AMOUNT_UNITS + 1))),
    )
    assert main(["selftest", "--seed", "3"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["snapshot-roundtrip"]["passed"]
    assert "does not re-save to the same document" in checks["snapshot-roundtrip"]["detail"]


def test_selftest_reports_a_check_that_raises(monkeypatch, capsys):
    # an exception other than a failed assertion still fails only its own
    # check: the report is written, the traceback goes to stderr and
    # selftest exits 1
    def corrupt(*args):
        raise RuntimeError("collapsed onto a zero branch; numerical state is corrupt")

    monkeypatch.setattr(cli, "swap_test", corrupt)
    assert main(["selftest", "--seed", "3"]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert "Traceback" in err and "in corrupt" in err
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["status"] == "FAIL"
    assert checks["teleport-roundtrip"] == {
        "name": "teleport-roundtrip",
        "passed": False,
        "detail": "RuntimeError: collapsed onto a zero branch; numerical state is corrupt",
    }
    assert all(c["passed"] for name, c in checks.items() if name != "teleport-roundtrip")


def _rng_as_list(doc):
    doc["world"]["rng"] = [doc["world"]["rng"]]


def _negative_rng_counter(doc):
    doc["world"]["rng"]["state"]["inc"] = -1


def _public_key_as_list(doc):
    doc["bank"]["records"][0]["public_key"] = []


def _no_config(doc):
    del doc["config"]


def _signature_bits_below_minimum(doc):
    doc["bank"]["signature_bits"] = 7


# Fields of the wrong JSON type are refused, not coerced: bool("false") is
# True and int(2.9) is 2, so coercion would restore a bank that never was.
def _insecure_flag_as_text(doc):
    params = doc["bank"]["records"][0]["params"]
    params["allow_insecure_key_bits"], params["key_bits"] = "false", 8


def _fractional_triple_count(doc):
    doc["bank"]["records"][0]["params"]["ghz_triples"] = 2.9


def _spent_flag_as_text(doc):
    doc["bank"]["records"][0]["spent"] = "false"


def _short_preimages(doc):
    doc["bank"]["records"][0]["public_key"]["preimage_bits"] = 64


def _preimage_bits_as_float(doc):
    doc["bank"]["records"][0]["public_key"]["preimage_bits"] = 128.0


def _signature_bits_as_float(doc):
    doc["bank"]["signature_bits"] = 128.0


def _kappa2_as_bool(doc):
    doc["bank"]["records"][0]["params"]["policy"]["kappa2"] = True


def _fractional_cheque_qubit_id(doc):
    doc["cheque"]["amount_qubits"][0][0] += 0.9


def _cheque_qubit_id_as_text(doc):
    pair = doc["cheque"]["auth_qubits"][0]
    pair[0] = str(pair[0])


def _fractional_vault_qubit_id(doc):
    doc["bank"]["records"][0]["bank_qubits"][0][0] += 0.9


def _fractional_transcript_seq(doc):
    doc["bank"]["transcript"][0]["seq"] = 0.5


# The next session is numbered counter + 1: a counter below a logged
# session would log that session's number a second time.
def _session_counter_below_transcript(doc):
    doc["bank"]["session_counter"] = 0


def _next_qid_as_text(doc):
    doc["world"]["next_qid"] = str(doc["world"]["next_qid"])


def _fractional_group_ceiling(doc):
    doc["world"]["max_group_qubits"] = 16.7


def _fractional_group_qubit_id(doc):
    doc["world"]["groups"][0]["qubits"][0][0] += 0.9


# JSON has no NaN or Infinity, but Python's parser reads both; a free-form
# field holding one loads, and the re-save cannot write it.
def _nan_seed_in_config(doc):
    doc["config"]["seed"] = float("nan")


def _infinite_payload_value(doc):
    doc["bank"]["transcript"][0]["payload"]["ghz_triples"] = float("inf")


@pytest.mark.parametrize(
    "corrupt",
    [_rng_as_list, _negative_rng_counter, _public_key_as_list, _no_config,
     _signature_bits_below_minimum, _insecure_flag_as_text, _fractional_triple_count,
     _spent_flag_as_text, _short_preimages, _kappa2_as_bool, _fractional_cheque_qubit_id,
     _cheque_qubit_id_as_text, _fractional_vault_qubit_id, _fractional_transcript_seq,
     _session_counter_below_transcript,
     _next_qid_as_text, _fractional_group_ceiling, _fractional_group_qubit_id,
     _preimage_bits_as_float, _signature_bits_as_float, _nan_seed_in_config,
     _infinite_payload_value],
)
def test_malformed_snapshot_is_a_file_error(corrupt, tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(scenario.read_text())
    corrupt(doc)
    scenario.write_text(json.dumps(doc))
    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 3, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not resaved.exists()


# int() reads every Unicode decimal digit, so a bit field written in other
# digits would load, and re-save in ASCII: not the document that was read.
@pytest.mark.parametrize("digits", ["\u0660\u0661", "\uff10\uff11"], ids=["arabic-indic", "fullwidth"])
@pytest.mark.parametrize(
    "section, key",
    [("cheque", "serial"), ("cheque", "nonce"), ("cheque", "amount"),
     ("record", "serial"), ("record", "shared_key")],
)
def test_bit_field_in_non_ascii_digits_is_a_file_error(section, key, digits, tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(scenario.read_text())
    fields = doc["cheque"] if section == "cheque" else doc["bank"]["records"][0]
    fields[key] = fields[key].translate(str.maketrans("01", digits))
    scenario.write_text(json.dumps(doc))
    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 3, proc.stderr
    assert "'0' and '1'" in proc.stderr and "Traceback" not in proc.stderr
    assert not resaved.exists()


# bytes.fromhex also reads upper case and whitespace, so a hex field in
# either form would load, and re-save in lower case: not the document read.
# restore refuses it for that, and refuses the other two as unreadable.
_HEX_CORRUPTIONS = {
    "upper-case": str.upper,
    "whitespace": lambda text: text[:2] + " " + text[2:],
    "odd-length": lambda text: text[:-1],
    "number": lambda text: 12,
}


@pytest.mark.parametrize("corruption", list(_HEX_CORRUPTIONS))
@pytest.mark.parametrize("field", ["signature", "public-key-entry"])
def test_hex_field_not_in_lower_case_is_a_file_error(field, corruption, tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(scenario.read_text())
    if field == "signature":
        holder, key = doc["cheque"], "signature"
    else:
        holder, key = doc["bank"]["records"][0]["public_key"]["entries"][0], 0
    corrupted = _HEX_CORRUPTIONS[corruption](holder[key])
    assert corrupted != holder[key]
    holder[key] = corrupted
    scenario.write_text(json.dumps(doc))
    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 3, proc.stderr
    assert "invalid snapshot contents" in proc.stderr and "Traceback" not in proc.stderr
    assert not resaved.exists()


def _empty_group(world):
    world["groups"].append({"qubits": [], "amplitudes": [[1.0, 0.0]]})


def _ceiling_below_widest_group(world):
    world["max_group_qubits"] = max(len(g["qubits"]) for g in world["groups"]) - 1


@pytest.mark.parametrize(
    "corrupt, message",
    [(_empty_group, "0 qubits is outside"), (_ceiling_below_widest_group, "group ceiling 1 is not 24")],
    ids=["_empty_group", "_ceiling_below_widest_group"],
)
def test_snapshot_with_invalid_group_is_a_file_error(corrupt, message, tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(scenario.read_text())
    corrupt(doc["world"])
    scenario.write_text(json.dumps(doc))
    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 3, proc.stderr
    assert message in proc.stderr
    assert not resaved.exists()


def _account_id_as_int(doc):
    doc["bank"]["records"][0]["account_id"] = doc["cheque"]["account_id"] = 7


def _vault_cut_to_one_qubit(doc):
    del doc["bank"]["records"][0]["bank_qubits"][1:]


def _serial_listed_twice(doc):
    records = doc["bank"]["records"]
    records.append(json.loads(json.dumps(records[0])))


def _no_groups_and_negative_next_qid(doc):
    doc["world"]["groups"], doc["world"]["next_qid"] = [], -3


# Scenarios that restored whole and left a deposit that could not end
# cleanly: an int account id raised past retirement, a cut vault accepted
# and left its unlisted qubit live, a repeated serial dropped a record and
# a negative next_qid made a world whose own save does not load.
@pytest.mark.parametrize(
    "corrupt, message",
    [(_account_id_as_int, "account_id must be str, got 7"),
     (_vault_cut_to_one_qubit, "record holds 1 vault qubits, scheme expects 2"),
     (_serial_listed_twice, "twice"),
     (_no_groups_and_negative_next_qid, "next_qid -3 is negative")],
    ids=["_account_id_as_int", "_vault_cut_to_one_qubit", "_serial_listed_twice",
         "_no_groups_and_negative_next_qid"],
)
def test_snapshot_a_deposit_cannot_end_is_a_file_error(corrupt, message, tmp_path):
    scenario = tmp_path / "scenario.json"
    proc = run_cli("snapshot", *FAST, "--seed", "9", "--snapshot", str(scenario))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(scenario.read_text())
    corrupt(doc)
    scenario.write_text(json.dumps(doc))
    resaved = tmp_path / "resaved.json"
    proc = run_cli("restore", "--snapshot", str(scenario), "--out", str(resaved))
    assert proc.returncode == 3, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not resaved.exists()
