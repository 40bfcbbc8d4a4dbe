"""tools/cli_digest.py: the same CLI bytes give the same line, and one changed byte does not."""

import importlib.util
import sys
from pathlib import Path

from bnkappa import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
_spec = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def _line():
    return cli_digest.digest_line("report-ledger", cli_digest._report_ledger())


def test_digest_is_stable_and_sees_one_changed_byte(monkeypatch):
    monkeypatch.chdir(_PATH.parent.parent)  # the corpus names the ledger relative to the root
    first = _line()
    name, count, sha = first.split()
    assert (name, count, len(sha)) == ("report-ledger", "6", 64)
    assert _line() == first

    main, codes = cli.main, []

    def one_more_byte(argv):
        code = main(argv)
        codes.append(code)
        if argv[-1] == "csv" and argv[2] == "21":
            sys.stdout.write(" ")
        return code

    monkeypatch.setattr(cli, "main", one_more_byte)
    changed = _line()
    assert changed != first and changed.split()[:2] == first.split()[:2]
    assert codes == [0] * 6  # the ledger was found and read


def test_scalar_family_meets_every_refusal_text_of_the_scalar_commands(capsys):
    texts = {
        "rho": ["rho requires g >= 2, r >= 0, d >= 0"],
        "gamma": ["clifford_index requires r >= 0, d >= 0"],
        "rhok": ["gonality k must be >= 2", "rho_pflueger requires g >= 2, r >= 0, d >= 0"],
        "dmax": ["d_max requires g >= 2 and r >= 1"],
    }
    seen, formats = set(), set()
    for argv in cli_digest._scalars():
        code = cli.main(argv)
        err = capsys.readouterr().err
        formats.add((argv[0], argv[-1]))
        if code == 2:
            (text,) = [t for t in texts[argv[0]] if err.startswith(f"error: {t}")]
            seen.add(text)
        elif code == 1:
            assert "invalid int value" in err
    assert seen == {t for ts in texts.values() for t in ts}
    assert {(c, f) for c in texts for f in cli_digest.FORMATS} <= formats
