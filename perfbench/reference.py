"""The frozen reference build every timed run is paired with.

    python3 perfbench/reference.py --freeze     # re-freeze from src/repro

``reference/repro.zip`` holds the program's ``repro`` package as it stood
when the benchmark was defined.  Timed runs measure the program and this
reference side by side, alternating round by round on the same inputs, and
report the program's figures scaled by how the reference fared against its
nominal figures (``reference/reference.json``).  Host speed on a shared
machine drifts by up to 2x within minutes and slows both builds alike, so
the ratio cancels it; a change to the program moves only the program's side.

:func:`prepare` verifies the archive's fingerprint and unpacks it once into
the benchmark's working directory; the reference worker imports from there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import sys
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ARCHIVE = HERE / "reference" / "repro.zip"
CONFIG = HERE / "reference" / "reference.json"
WORK_DIR = HERE / ".work"


class ReferenceError(RuntimeError):
    """The reference archive is missing or does not match its fingerprint."""


def config() -> dict:
    return json.loads(CONFIG.read_text(encoding="utf-8"))


def nominal(workload: str) -> dict[str, float]:
    """The reference's figures on ``workload`` on the reference host."""
    try:
        return config()["nominal"][workload]
    except KeyError as exc:
        raise ReferenceError(f"no nominal reference figures for {workload}") from exc


def prepare() -> Path:
    """Unpack the verified archive; returns the directory to import from."""
    try:
        payload = ARCHIVE.read_bytes()
    except OSError as exc:
        raise ReferenceError(f"cannot read {ARCHIVE}: {exc}") from exc
    digest = hashlib.sha256(payload).hexdigest()
    if digest != config()["sha256"]:
        raise ReferenceError(f"{ARCHIVE} does not match its fingerprint")
    target = WORK_DIR / f"reference-{digest[:12]}"
    if not (target / "repro" / "__init__.py").is_file():
        staging = WORK_DIR / f"reference-{digest[:12]}.partial"
        shutil.rmtree(staging, ignore_errors=True)
        with zipfile.ZipFile(io.BytesIO(payload)) as archive:
            archive.extractall(staging)
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
    return target


def archive_bytes(source: Path) -> bytes:
    """A zip of the ``.py`` files of ``source/repro``, byte-stable.

    Entries are sorted and carry a fixed timestamp, so archiving the same
    sources twice gives the same bytes.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for path in sorted((source / "repro").rglob("*.py")):
            info = zipfile.ZipInfo(path.relative_to(source).as_posix(), (1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            archive.writestr(info, path.read_bytes())
    return buffer.getvalue()


def freeze(source: Path) -> str:
    """Archive ``source/repro`` as the reference; returns the digest.

    The nominal figures are cleared: they belong to the old archive and
    must be measured again (``run.py --steady N --write-nominal``).
    """
    payload = archive_bytes(source)
    ARCHIVE.parent.mkdir(parents=True, exist_ok=True)
    ARCHIVE.write_bytes(payload)
    digest = hashlib.sha256(payload).hexdigest()
    write_config({"sha256": digest, "nominal": {}})
    return digest


def write_config(data: dict) -> None:
    CONFIG.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--freeze", action="store_true",
                        help="archive src/repro of this checkout as the reference")
    args = parser.parse_args()
    if not args.freeze:
        parser.error("nothing to do; pass --freeze")
    print(freeze(HERE.parent / "src"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
