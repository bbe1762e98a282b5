"""Test helper: write a dataset as the CSV file that ``read_dataset_csv`` and the CLI read."""

import numpy as np


def write_dataset_csv(path, dataset):
    """Header x1..xd,y, then one row per sample with every value written as repr(float)."""
    header = [f"x{i+1}" for i in range(dataset.X.shape[1])] + ["y"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.column_stack([dataset.X, dataset.y]):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
