"""Read a ``manifest.jsonl``, the candidate list ``write_manifest`` gives an external harness."""

import json
from pathlib import Path

from paretomerge.merge import Genotype


def read_manifest(path) -> list[tuple[str, Genotype]]:
    """(candidate id, genotype) of each line, in file order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [(o["candidate_id"], Genotype(**o["genotype"])) for o in map(json.loads, lines)]
