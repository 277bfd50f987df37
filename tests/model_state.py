"""Convert embedding-model states between their packed and list forms.

``EmbeddingModel.state_dict()`` packs its vocabulary: the feature names
joined by newlines; the document frequencies as base64 little-endian
integers, two bytes wide while the document count is at most 32,767, four
beyond; and the feature hashes as base64 of the vector indices (unsigned
little-endian integers, one byte wide up to 256 dimensions, two up to
65,536, four beyond) followed by one bit per sign, set for -1, in
``numpy.packbits`` order.  The golden files were recorded from the list
form that preceded it: the features, the frequencies as floats and each
hash as one signed int ``(index + 1) * sign``, each a JSON list.  Tests
digest and compare states in the list form (:func:`list_form`) and load
recorded states through :func:`packed_form`.

Both accept a model state, a vector-store state (its ``model``) or an
example-store state (its ``vector_store``), and return a new state with
the model converted; the spelling of the packed form here is independent of
the model's own encoder.
"""

from __future__ import annotations

import base64

import numpy as np


def _frequency_width(document_count: int) -> str:
    return "<i2" if document_count <= 0x7FFF else "<i4"


def _index_width(dimensions: int) -> str:
    if dimensions <= 0x100:
        return "<u1"
    return "<u2" if dimensions <= 0x10000 else "<u4"


def signed_hashes(encoded: str, count: int, dimensions: int) -> list[int]:
    """``count`` packed hashes as signed ints ``(index + 1) * sign``."""
    data = base64.b64decode(encoded)
    dtype = np.dtype(_index_width(dimensions))
    size = count * dtype.itemsize
    assert len(data) == size + (count + 7) // 8
    indices = np.frombuffer(data, dtype=dtype, count=count).astype(np.int64)
    negative = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=size), count=count)
    return ((indices + 1) * np.where(negative, -1, 1)).tolist()


def packed_hashes(hashes: list[int], dimensions: int) -> str:
    """Signed ints ``(index + 1) * sign`` in the packed form."""
    signed = np.array(hashes, dtype=np.int64)
    indices = (np.abs(signed) - 1).astype(_index_width(dimensions))
    data = indices.tobytes() + np.packbits(signed < 0).tobytes()
    return base64.b64encode(data).decode("ascii")


def _model_list_form(state: dict) -> dict:
    features = state["features"].split("\n") if state["features"] else []
    frequencies = np.frombuffer(
        base64.b64decode(state["frequencies"]), dtype=_frequency_width(state["document_count"])
    )
    return dict(
        state,
        features=features,
        frequencies=[float(frequency) for frequency in frequencies.tolist()],
        hashes=signed_hashes(state["hashes"], len(features), state["dimensions"]),
    )


def _model_packed_form(state: dict) -> dict:
    frequencies = np.array(state["frequencies"], dtype=np.int64)
    frequencies = frequencies.astype(_frequency_width(state["document_count"]))
    return dict(
        state,
        features="\n".join(state["features"]),
        frequencies=base64.b64encode(frequencies.tobytes()).decode("ascii"),
        hashes=packed_hashes(state["hashes"], state["dimensions"]),
    )


def _converted(state: dict, convert) -> dict:
    if "vector_store" in state:
        return dict(state, vector_store=_converted(state["vector_store"], convert))
    if "model" in state:
        return dict(state, model=convert(state["model"]))
    return convert(state)


def list_form(state: dict) -> dict:
    """``state`` with its model's packed vocabulary spelled as lists."""
    return _converted(state, _model_list_form)


def packed_form(state: dict) -> dict:
    """``state`` with its model's list-form vocabulary packed."""
    return _converted(state, _model_packed_form)
