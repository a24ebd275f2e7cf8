"""The action of a group element on a group feature map: the oracle that the
equivariance tests compare layer and model outputs against."""

import numpy as np

from rgconv import ShapeError, transform_grid


def transform_group_feature(group, g: int, arr) -> np.ndarray:
    """Act on a group feature map laid out as [..., |H|, spatial...]: the grid
    moves as in :func:`rgconv.transform_grid` and the group axis is gathered
    by ``sigma[g]``."""
    a = np.asarray(arr)
    h_axis = a.ndim - group.dim - 1
    if h_axis < 0 or a.shape[h_axis] != group.order:
        raise ShapeError(
            f"expected a group axis of size {group.order} before the spatial axes"
        )
    sigma_g = group.cayley[group.inverse[g]]  # sigma[g], as in build_action_cache
    return np.take(transform_grid(group, g, a), sigma_g, axis=h_axis)
