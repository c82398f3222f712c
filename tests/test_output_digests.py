"""Byte-identical guard on the certification output.

The sha256 of `verify --all`'s text and of report_csv_rows over every report
of certify_all() and monotonicity_suite() on the default grid, run in
process.  The digests pin every slack's bits, so a change that moves one
value by an ulp fails here; a change meant to move values records new
digests and says which values moved and by how much.  They were recorded
with CPython 3.11, numpy 2.4 and glibc's libm on x86-64 Linux.
"""

import hashlib

from struvebounds import cli, verify

VERIFY_ALL_TEXT = "452fdab6cd203983238a47a984dfb25a6be2d1004439b48cfdb21e0e59fd1967"
CERTIFY_ALL_CSV = "90fde43b48b551e940a4a8fad0e9edd74628ee5a29dfeb14723ea70e66db8cd3"
SUITE_CSV = "78b65768b6d210c69eee382384d38fb6a985a7428da0a80cbb0301a4da09bd97"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv(reports) -> str:
    return "\n".join(line for rep in reports for line in verify.report_csv_rows(rep))


def test_verify_all_text_is_unchanged(capsys):
    assert cli.main(["verify", "--all"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_ALL_TEXT


def test_report_csv_rows_are_unchanged():
    assert _sha256(_csv(verify.certify_all())) == CERTIFY_ALL_CSV
    assert _sha256(_csv(verify.monotonicity_suite())) == SUITE_CSV
