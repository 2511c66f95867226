"""Zero-copy shared model artifacts for the sharded engine.

``SizingModel.save`` writes ``.npz`` bundles, which are zip archives:
``np.load(..., mmap_mode="r")`` silently ignores ``mmap_mode`` for zip
members, so every worker process that loads a bundle pays a private copy
of the transformer weights and gm/Id LUT grids — N workers cost Nx model
memory.  This module serializes the same arrays into a *single* raw
``.npy`` file plus a JSON manifest:

* ``arrays.npy`` — one flat ``uint8`` buffer holding every weight array
  and LUT grid back to back, each at a 64-byte-aligned offset.
* ``manifest.json`` — the bundle metadata (tokenizer merges, vocab,
  sequence config, transformer config, decode budgets, LUT scalars)
  plus an offset / dtype / shape table for every array in the buffer.

Workers open the buffer with ``np.load(mmap_mode="r")`` and rebind model
parameters to read-only views into it (:meth:`Module.adopt_parameters`),
so all workers share one physical copy of the pages and startup does no
bulk deserialization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.bundle import SizingModel
from ..datagen.serialize import SequenceBuilder, SequenceConfig, SequenceFormat
from ..lut import LUT_OUTPUTS, LookupTable
from ..nlp import RestrictedBPE, Vocabulary
from ..topologies import topology_by_name
from ..transformer import Transformer, TransformerConfig

__all__ = ["ARTIFACT_VERSION", "SharedArtifact", "export_artifact", "load_shared_model"]

ARTIFACT_VERSION = 1

#: Byte alignment of each array inside ``arrays.npy``.  ``np.save`` pads
#: its header to a 64-byte boundary, so aligning the in-buffer offsets
#: keeps every array 64-byte aligned in the file as well.
_ALIGN = 64

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npy"


@dataclass(frozen=True)
class SharedArtifact:  # checks: process-shared
    """Handle to an exported artifact directory.

    Marked ``process-shared``: the handle crosses the spawn boundary in
    worker configs, so it stays plain data — a path and the parsed
    manifest, never the mmap itself (each worker opens its own mapping).
    """

    directory: str
    manifest: dict

    @property
    def arrays_path(self) -> str:
        return str(Path(self.directory) / _ARRAYS)

    @classmethod
    def open(cls, directory: str | Path) -> SharedArtifact:
        path = Path(directory)
        manifest = json.loads((path / _MANIFEST).read_text())
        version = manifest.get("format_version")
        if version != ARTIFACT_VERSION:
            raise ValueError(
                f"artifact {path} has format_version {version!r}; "
                f"this build reads version {ARTIFACT_VERSION}"
            )
        return cls(directory=str(path), manifest=manifest)


def _array_entries(model: SizingModel) -> list[tuple[str, np.ndarray]]:
    entries: list[tuple[str, np.ndarray]] = [
        (f"transformer/{name}", value)
        for name, value in model.transformer.named_parameters()
    ]
    for tech_name in sorted(model.luts):
        lut = model.luts[tech_name]
        entries.append((f"lut/{tech_name}/vgs_grid", lut.vgs_grid))
        entries.append((f"lut/{tech_name}/vds_grid", lut.vds_grid))
        for output in LUT_OUTPUTS:
            entries.append((f"lut/{tech_name}/table_{output}", lut.tables[output]))
    return entries


def export_artifact(model: SizingModel, directory: str | Path) -> SharedArtifact:
    """Write ``model``'s arrays and metadata as a mmap-friendly artifact."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    entries = _array_entries(model)
    arrays_meta: dict[str, dict] = {}
    cursor = 0
    blocks: list[tuple[int, np.ndarray]] = []
    for name, value in entries:
        contiguous = np.ascontiguousarray(value)
        cursor = -(-cursor // _ALIGN) * _ALIGN
        arrays_meta[name] = {
            "offset": cursor,
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
        }
        blocks.append((cursor, contiguous))
        cursor += contiguous.nbytes
    buffer = np.zeros(cursor, dtype=np.uint8)
    for offset, contiguous in blocks:
        flat = contiguous.reshape(-1).view(np.uint8)
        buffer[offset : offset + contiguous.nbytes] = flat
    np.save(path / _ARRAYS, buffer)

    manifest = {
        "format_version": ARTIFACT_VERSION,
        "merges": [list(pair) for pair in model.bpe.merges],
        "num_merges": model.bpe.num_merges,
        "vocab": model.vocab.id_to_token,
        "sequence_config": {
            "decoder_format": model.sequence_config.decoder_format.value,
            "encoder_max_paths": model.sequence_config.encoder_max_paths,
            "specs_per_path": model.sequence_config.specs_per_path,
            "include_paths_in_encoder": model.sequence_config.include_paths_in_encoder,
        },
        "topologies": sorted(model.builders),
        "decode_budgets": dict(sorted(model.decode_budgets.items())),
        "transformer_config": asdict(model.transformer.config),
        "luts": {
            tech_name: {
                "length": lut.length,
                "reference_width": lut.reference_width,
            }
            for tech_name, lut in sorted(model.luts.items())
        },
        "arrays": arrays_meta,
    }
    (path / _MANIFEST).write_text(json.dumps(manifest, allow_nan=False))
    return SharedArtifact(directory=str(path), manifest=manifest)


def _views(artifact: SharedArtifact) -> dict[str, np.ndarray]:
    """Read-only views into one shared mapping of ``arrays.npy``."""
    mm = np.load(artifact.arrays_path, mmap_mode="r")
    views: dict[str, np.ndarray] = {}
    for name, meta in artifact.manifest["arrays"].items():
        dtype = np.dtype(meta["dtype"])
        shape = tuple(meta["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        offset = meta["offset"]
        views[name] = mm[offset : offset + nbytes].view(dtype).reshape(shape)
    return views


def load_shared_model(directory: str | Path) -> SizingModel:
    """Reconstruct a :class:`SizingModel` whose arrays are mmap views.

    The transformer's parameters and every LUT grid/table alias the
    page cache mapping of ``arrays.npy`` (check ``array.base`` for
    ``np.memmap``), so concurrently loaded copies in other processes
    share physical memory.  Only small derived state — the LUTs'
    polynomial pieces (~0.9 MB each), tokenizer dicts — is private per
    process.
    """
    artifact = SharedArtifact.open(directory)
    manifest = artifact.manifest
    views = _views(artifact)

    config = TransformerConfig(**manifest["transformer_config"])
    transformer = Transformer(config)
    transformer.adopt_parameters(
        {
            name[len("transformer/") :]: view
            for name, view in views.items()
            if name.startswith("transformer/")
        }
    )

    luts = {
        tech_name: LookupTable.from_arrays(
            tech_name,
            length=meta["length"],
            reference_width=meta["reference_width"],
            vgs_grid=views[f"lut/{tech_name}/vgs_grid"],
            vds_grid=views[f"lut/{tech_name}/vds_grid"],
            tables={
                output: views[f"lut/{tech_name}/table_{output}"]
                for output in LUT_OUTPUTS
            },
        )
        for tech_name, meta in manifest["luts"].items()
    }

    bpe = RestrictedBPE.from_merges(manifest["merges"], num_merges=manifest["num_merges"])
    vocab = Vocabulary()
    for token in manifest["vocab"]:
        vocab.add(token)
    config_meta = manifest["sequence_config"]
    sequence_config = SequenceConfig(
        decoder_format=SequenceFormat(config_meta["decoder_format"]),
        encoder_max_paths=config_meta["encoder_max_paths"],
        specs_per_path=config_meta["specs_per_path"],
        include_paths_in_encoder=config_meta["include_paths_in_encoder"],
    )
    builders = {
        name: SequenceBuilder(topology_by_name(name), sequence_config)
        for name in manifest["topologies"]
    }
    return SizingModel(
        transformer=transformer,
        bpe=bpe,
        vocab=vocab,
        sequence_config=sequence_config,
        builders=builders,
        luts=luts,
        decode_budgets=manifest.get("decode_budgets", {}),
    )
