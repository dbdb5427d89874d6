"""The slow record loader: one ``json.loads`` per line with the record checks
written out, which the tests compare ``load_record_evaluations`` against.

It takes the same file contract (UTF-8 lines split at newline bytes, blank
lines skipped) and raises the same ``RecordFormatError`` messages with the
same line numbers, but reads no index and groups records per candidate as
it goes.
"""

import json
import sys

from paretomerge.errors import RecordFormatError
from paretomerge.evaluation import Outcomes

FIELDS = ("candidate_id", "item_id", "correct", "length")


def reference_load(path) -> dict[str, Outcomes]:
    """One ``Outcomes`` per candidate id, in order of first record."""
    columns, seen = {}, set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise RecordFormatError(f"{path}: line {lineno}: not valid UTF-8: {exc}") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise RecordFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise RecordFormatError(f"{path}: line {lineno}: record must be an object")
            missing = [f for f in FIELDS if f not in obj]
            if missing:
                raise RecordFormatError(
                    f"{path}: line {lineno}: missing field(s) {', '.join(missing)}"
                )
            cand, iid = obj["candidate_id"], obj["item_id"]
            if not isinstance(cand, str) or not cand or not isinstance(iid, str) or not iid:
                raise RecordFormatError(
                    f"{path}: line {lineno}: candidate_id and item_id must be non-empty strings"
                )
            correct, length = obj["correct"], obj["length"]
            if type(correct) not in (int, float) or correct not in (0, 1):
                raise RecordFormatError(
                    f"{path}: line {lineno}: correctness must be 0 or 1, got {correct!r}"
                )
            if type(length) not in (int, float) or not 0 <= length <= sys.float_info.max:
                raise RecordFormatError(
                    f"{path}: line {lineno}: length must be a finite number >= 0, got {length!r}"
                )
            if (cand, iid) in seen:
                raise RecordFormatError(
                    f"{path}: line {lineno}: duplicate record for candidate "
                    f"{cand!r}, item {iid!r}"
                )
            seen.add((cand, iid))
            ids, correct_col, length_col = columns.setdefault(cand, ([], [], []))
            ids.append(iid)
            correct_col.append(correct)
            length_col.append(length)
    return {cand: Outcomes(*cols) for cand, cols in columns.items()}
