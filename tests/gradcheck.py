"""Central-difference gradient checking shared by the nn and model tests."""

import numpy as np

from lemname.nn import backward


def finite_difference_check(
    parameters: dict,
    build_loss,
    rng: np.random.Generator,
    n_coords: int = 20,
    step: float = 1e-5,
    atol: float = 1e-7,
    rtol: float = 1e-4,
):
    """Compare analytic gradients against central differences.

    Samples n_coords random parameter coordinates, perturbs each by
    +-step, and requires |analytic - fd| <= atol + rtol * max(|a|, |fd|).
    The additive floor absorbs difference-quotient roundoff (about 1e-10
    here) on coordinates whose true gradient is near zero; for anything
    of real magnitude the rtol term dominates, i.e. 1e-4 relative error.
    Returns the checked (name, index, analytic, fd) tuples.
    """
    loss = build_loss()
    backward(loss, parameters)
    analytic = {name: tensor.grad.copy() for name, tensor in parameters.items()}

    names = list(analytic)
    sizes = np.array([parameters[name].data.size for name in names])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(n_coords, total), replace=False)

    checked = []
    for flat in sorted(int(p) for p in picks):
        which = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        index = flat - int(np.cumsum(sizes)[which] - sizes[which])
        tensor = parameters[names[which]]
        original = tensor.data.flat[index]
        tensor.data.flat[index] = original + step
        f_plus = float(build_loss().data)
        tensor.data.flat[index] = original - step
        f_minus = float(build_loss().data)
        tensor.data.flat[index] = original
        fd = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic[names[which]].flat[index])
        tolerance = atol + rtol * max(abs(a), abs(fd))
        assert abs(a - fd) <= tolerance, (
            f"gradient mismatch at {names[which]}[{index}]: analytic {a!r}, "
            f"finite difference {fd!r}, tolerance {tolerance!r}"
        )
        checked.append((names[which], index, a, fd))
    return checked
