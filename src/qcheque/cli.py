"""Command-line scenario runner.

Subcommands: run-honest, attack, snapshot, restore, selftest.  Every run
prints exactly one JSON document to stdout with sorted keys, so a fixed
seed and config reproduce the output byte for byte.  Wall-clock timing
goes to stderr, never into the document.

Exit codes: 0 on success, 1 when a scenario's empirical rate disagrees
with its analytic prediction by more than four standard deviations (or a
selftest check fails), 2 for usage errors, 3 for file and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .adversary import (
    ACCOUNT_ID,
    AMOUNT_UNITS,
    STRATEGIES,
    clone_qubit,
    run_attack,
    run_honest,
)
from .protocol import (
    AcceptancePolicy,
    Bank,
    QuantumCheque,
    SchemeParams,
    encode_amount,
    sign_cheque,
)
from .qowf import prepare_amount_state
from .sim import Owner, World, _document, haar_random_qubit
from .stats import within_sigma
from .swaptest import swap_test
from .teleport import encode_qubit, prepare_ghz, recover_qubit

__all__ = ["main", "build_parser"]

REPORT_FORMAT = "qcheque-report"
REPORT_VERSION = 1
SCENARIO_FORMAT = "qcheque-scenario"
SCENARIO_VERSION = 1


class CliFileError(Exception):
    """A file could not be read, parsed or validated; maps to exit 3."""


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _compact(doc) -> str:
    """`doc` as `_dump` writes it, less the whitespace; `indent` would
    bypass the C encoder."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_params(args) -> SchemeParams:
    policy = AcceptancePolicy(mode=args.policy, kappa2=args.kappa2)
    return SchemeParams(
        ghz_triples=args.l,
        auth_qubits=args.n,
        key_bits=args.key_bits,
        serial_bits=args.serial_bits,
        policy=policy,
        allow_insecure_key_bits=args.key_bits < 64,
    )


def _header(command: str) -> dict:
    """The fields every report document starts with."""
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "library_version": __version__,
        "command": command,
    }


def cmd_run(args) -> int:
    """`run-honest`, whose strategy is None, or `attack`: sample the
    trials and report whether the rate agrees with its prediction."""
    params = _build_params(args)
    if args.strategy is None:
        stats = run_honest(params, args.trials, args.seed)
    else:
        stats = run_attack(args.strategy, params, args.trials, args.seed)
    agrees = within_sigma(
        stats.empirical_rate, stats.analytic_rate, stats.analytic_sigma, z=4.0
    )
    doc = {
        **_header(args.command),
        "config": {
            "params": params.to_json(),
            "trials": args.trials,
            "seed": args.seed,
            "strategy": args.strategy,
        },
        "stats": stats.to_json(),
        "within_4_sigma": agrees,
        "status": "PASS" if agrees else "FAIL",
    }
    _emit(_dump(doc), args.out)
    return 0 if agrees else 1


def _scenario(config: dict, world: World, bank: Bank, cheque: QuantumCheque) -> dict:
    return {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_VERSION,
        "config": config,
        "world": world.to_json(),
        "bank": bank.to_json(),
        "cheque": cheque.to_json(),
    }


def _scenario_doc(seed: int, params: SchemeParams) -> dict:
    world = World(seed=seed)
    bank = Bank()
    book, _ = bank.gen_account(world, ACCOUNT_ID, params)
    cheque = sign_cheque(world, book, encode_amount(AMOUNT_UNITS))
    return _scenario({"params": params.to_json(), "seed": seed}, world, bank, cheque)


def cmd_snapshot(args) -> int:
    params = _build_params(args)
    doc = _scenario_doc(args.seed, params)
    with open(args.snapshot, "w", encoding="utf-8") as fh:
        fh.write(_dump(doc))
    world_doc = doc["world"]
    summary = {
        **_header("snapshot"),
        "config": doc["config"],
        "snapshot_path": args.snapshot,
        "qubits": sum(len(g["qubits"]) for g in world_doc["groups"]),
        "accounts": len(doc["bank"]["records"]),
        "status": "PASS",
    }
    _emit(_dump(summary), args.out)
    return 0


def _restored(text: str, where: str) -> dict:
    """The scenario document `text` holds, once its world, bank and cheque
    have loaded and passed their checks; refused unless they re-save to
    that document.  `where` names the text in error messages."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliFileError(
            f"{where}: parse error at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CliFileError(f"{where}: parse error: nested too deeply") from exc
    try:
        _document(doc, SCENARIO_FORMAT, SCENARIO_VERSION)
        config = doc["config"]
        world = World.from_json(doc["world"])
        bank = Bank.from_json(doc["bank"])
        cheque = QuantumCheque.from_json(doc["cheque"])
        world.check_partition()
        # JSON text is type-strict, so this refuses every value a loader
        # coerced (true for 1, 128.0 for 128, upper-case hex) and every
        # key it ignored, wherever it sits.  Compact texts are equal
        # exactly when the indented ones are, and the C encoder writes
        # them; only the text kept for --out is indented.
        rebuilt = _scenario(config, world, bank, cheque)
        if _compact(rebuilt) != _compact(doc):
            raise ValueError("it does not re-save to the same document")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise CliFileError(f"{where}: invalid snapshot contents: {exc}") from exc
    return rebuilt


def cmd_restore(args) -> int:
    try:
        with open(args.snapshot, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliFileError(f"cannot read {args.snapshot}: {exc}") from exc
    doc = _restored(text, args.snapshot)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(doc))
    summary = {
        **_header("restore"),
        "snapshot_path": args.snapshot,
        "accounts": len(doc["bank"]["records"]),
        "live_qubits": sum(len(g["qubits"]) for g in doc["world"]["groups"]),
        "transcript_messages": len(doc["bank"]["transcript"]),
        "cheque_serial": doc["cheque"]["serial"],
        "status": "PASS",
    }
    sys.stdout.write(_dump(summary))
    return 0


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------


def _check_teleport_roundtrip() -> None:
    world = World(seed=101)
    triple = prepare_ghz(world, 1)
    amount = encode_amount(7)
    nonce = amount  # any bits will do for a smoke check
    payload = prepare_amount_state(world, nonce, amount, 1)
    encode_qubit(world, payload, triple)
    recover_qubit(world, triple.bank_qubit, triple.cheque_qubit)
    world.discard(triple.bank_qubit)
    target = prepare_amount_state(world, nonce, amount, 1)
    if not swap_test(world, [triple.cheque_qubit], [target]):
        raise AssertionError("recovered state failed its swap test")
    world.discard(triple.cheque_qubit)
    world.discard(target)
    world.check_partition()


def _check_cloner_shrink() -> None:
    world = World(seed=103)
    amps = haar_random_qubit(world.rng)
    q = world.allocate(Owner.ALICE, amps)
    result = clone_qubit(world, q)
    want = (2.0 / 3.0) * np.outer(amps, amps.conj()) + (1.0 / 6.0) * np.eye(2)
    for handle in (q, result.copy):
        got = world.reduced_density([handle])
        if float(np.max(np.abs(got - want))) > 1e-9:
            raise AssertionError("clone is not the optimal shrunk state")


def _check_honest_small(seed: int) -> None:
    params = SchemeParams(ghz_triples=2, auth_qubits=2)
    stats = run_honest(params, trials=40, seed=seed)
    if stats.empirical_rate != 1.0:
        raise AssertionError(f"honest acceptance {stats.empirical_rate}, wanted 1.0")


def _check_replay_rejected(seed: int) -> None:
    params = SchemeParams(ghz_triples=2, auth_qubits=2)
    stats = run_attack("replay", params, trials=20, seed=seed)
    if stats.successes != 0:
        raise AssertionError(f"{stats.successes} replays slipped past the ledger")


def _check_snapshot_stable(seed: int) -> None:
    """`restore`'s own validation of the scenario `snapshot` writes."""
    params = SchemeParams(ghz_triples=2, auth_qubits=2)
    _restored(_dump(_scenario_doc(seed, params)), "scenario")


def cmd_selftest(args) -> int:
    checks = [
        ("teleport-roundtrip", _check_teleport_roundtrip),
        ("cloner-shrink", _check_cloner_shrink),
        ("honest-small", lambda: _check_honest_small(args.seed)),
        ("replay-rejected", lambda: _check_replay_rejected(args.seed)),
        ("snapshot-roundtrip", lambda: _check_snapshot_stable(args.seed)),
    ]
    results = []
    for name, check in checks:
        try:
            check()
            results.append({"name": name, "passed": True})
        except (AssertionError, CliFileError) as exc:
            results.append({"name": name, "passed": False, "detail": str(exc)})
    all_passed = all(r["passed"] for r in results)
    doc = {
        **_header("selftest"),
        "config": {"seed": args.seed},
        "checks": results,
        "status": "PASS" if all_passed else "FAIL",
    }
    _emit(_dump(doc), args.out)
    return 0 if all_passed else 1


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcheque",
        description="Simulate and stress-test an entanglement-backed cheque scheme.",
    )
    parser.add_argument("--version", action="version", version=f"qcheque {__version__}")

    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--l", type=int, default=8, metavar="N",
                        help="entangled triples (and amount registers) per cheque")
    scheme.add_argument("--n", type=int, default=8, metavar="N",
                        help="authentication register width in qubits")
    scheme.add_argument("--key-bits", type=int, default=256, metavar="BITS",
                        help="shared key and nonce length; values under 64 are "
                             "permitted here for key-guessing experiments")
    scheme.add_argument("--serial-bits", type=int, default=128, metavar="BITS",
                        help="serial number length")
    scheme.add_argument("--policy", choices=("strict", "threshold"), default="strict",
                        help="how swap-test verdicts aggregate")
    scheme.add_argument("--kappa2", type=float, default=0.91, metavar="K",
                        help="amount-register acceptance threshold")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--trials", type=int, default=1000, metavar="N",
                     help="independent protocol sessions to sample")
    run.add_argument("--seed", type=int, default=2026, metavar="SEED",
                     help="root seed; fixed seed means byte-identical output")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="also write the report document here")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-honest", parents=[scheme, run],
                       help="sign and deposit honestly, report the acceptance rate")
    p.set_defaults(func=cmd_run, strategy=None)

    p = sub.add_parser("attack", parents=[scheme, run],
                       help="run an adversary strategy and compare with analytics")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("snapshot", parents=[scheme],
                       help="persist a freshly signed scenario to a file")
    p.add_argument("--seed", type=int, default=2026, metavar="SEED")
    p.add_argument("--snapshot", required=True, metavar="PATH",
                   help="where to write the scenario document")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the summary report here")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("restore", help="load a scenario file and validate it")
    p.add_argument("--snapshot", required=True, metavar="PATH",
                   help="scenario document to load")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="re-save the restored scenario here (byte-identical)")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("selftest", help="run quick internal consistency checks")
    p.add_argument("--seed", type=int, default=7, metavar="SEED")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the report document here")
    p.set_defaults(func=cmd_selftest)

    return parser


# built once per process: building costs more than parsing a command line
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args)
    except (CliFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
