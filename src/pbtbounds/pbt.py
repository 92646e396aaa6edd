"""Port-based teleportation as a channel simulator.

Closed-form quantities for the qubit square-root-measurement protocol with M
ports: the depolarizing probability xi_M, the entanglement fidelity f_e, the
diamond-norm simulation errors delta_M and Delta_M(p), and the Choi matrices
of the simulated channels, which are linear in each channel's own Choi matrix
because the M-port qubit channel is depolarizing.

xi_M and f_e(M) come from one kernel, _series, which checks every port count:
below 100 ports both are read from _EXACT, a literal table of their exact
binomial sums that the tests re-derive bit for bit; from 100 on a 16-term
moment series for xi_M, within 1.4 ulp of mpmath, runs in O(1) per port count
in plain floats, and f_e = 1 - 3 xi_M / 4. A value is the same bits whether
computed alone or in any grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import sqrt

import numpy as np

from .channels import ChoiMatrix, KrausChannel, choi
from .linalg import (TOL_NUM, Array, DensityMatrix, _check_int, _check_interval, _partial_trace_2,
                     _trusted)


# Largest port count _series accepts: the top of the range its series is pinned on.
_MAX_PORTS = 10**10
_SERIES_FROM = 100  # the first port count whose xi_M comes from the series
# xi_M ~ sum_j c_j x^j, x = 1/(M + 2): c_1 .. c_16 rounded from exact dyadics (1, 5/4, 23/8, ...)
_XI_SERIES = (1.0, 1.25, 2.875, 10.859375, 59.3046875, 420.205078125, 3625.2099609375,
              36715.762634277344, 426288.49447631836, 5577426.5575790405, 81156782.94995499,
              1299645421.9053626, 22709970275.59639, 429934842884.4808, 8765178533123.627,
              191443578686870.97)
_DELTA_PER_XI = 1.5  # delta_M / xi_M at d = 2: the qubit simulation error is (3/2) xi_M
# (xi_M, f_e(M)) for M = 2 .. 99 at index M - 2, two port counts a line: the binomial sums
# (xi within 4.5 ulp of mpmath) as _exact_sums in tests/conftest.py computes them, bit for bit
_EXACT = (
    (0.7113248654051871, 0.4665063509461097), (0.5, 0.625),
    (0.3562148075158894, 0.7328388943630829), (0.2615193830873702, 0.8038604626844722),
    (0.19970345096376702, 0.8502224117771746), (0.15901858783223388, 0.8807360591258246),
    (0.13165528568208, 0.9012585357384401), (0.11265504923997526, 0.9155087130700188),
    (0.09894642926433701, 0.9257901780517471), (0.0886477381864951, 0.9335141963601287),
    (0.08060676270258954, 0.939544927973058), (0.0741118542852512, 0.9444161092860616),
    (0.06871594522471688, 0.9484630410814624), (0.06413122840920693, 0.9519015786930951),
    (0.060166688922778745, 0.9548749833079161), (0.05669112220927662, 0.9574816583430426),
    (0.05361114187842721, 0.9597916435911796), (0.05085796164815773, 0.9618565287638817),
    (0.04837931776201924, 0.9637155116784856), (0.046134421967226565, 0.9653991835245802),
    (0.044090721988619054, 0.9669319585085356), (0.042221758349595184, 0.9683336812378035),
    (0.04050570082598621, 0.9696207243805104), (0.03892431728009786, 0.9708067620399264),
    (0.03746222562676858, 0.9719033307799235), (0.03610633687715079, 0.972920247342137),
    (0.03484543103149622, 0.9738659267263778), (0.03366982795216887, 0.9747476290358734),
    (0.032571127869192376, 0.9755716540981058), (0.03154200406346345, 0.9763434969524025),
    (0.030576035383339632, 0.9770679734624952), (0.029667569652035108, 0.9777493227609737),
    (0.028811611349643978, 0.978391291487767), (0.02800372858548293, 0.978997203560888),
    (0.027239975547716597, 0.9795700183392126), (0.02651682747503394, 0.9801123793937246),
    (0.025831125834406745, 0.9806266556241948), (0.025180031872495984, 0.9811149760956279),
    (0.02456098707868472, 0.9815792596909866), (0.023971679384577747, 0.9820212404615669),
    (0.02341001414906764, 0.9824424893881996), (0.022874089154844013, 0.982844433133867),
    (0.02236217298260091, 0.9832283702630492), (0.021872686241414627, 0.9835954853189389),
    (0.021404185224016718, 0.9839468610819875), (0.020955347628682085, 0.9842834892784881),
    (0.020524960048799317, 0.9846062799634002), (0.020111906979678126, 0.9849160697652415),
    (0.019715161131948575, 0.9852136291510385), (0.01933377487371861, 0.9854996688447111),
    (0.01896687265081955, 0.9857748455118853), (0.0186136442570477, 0.9860397668072144),
    (0.018273338845146644, 0.9862949958661401), (0.017945259585049278, 0.986541055311213),
    (0.017628758889153124, 0.9867784308331352), (0.01732323413557807, 0.9870075743983162),
    (0.017028123829808277, 0.9872289071276437), (0.01674290415314018, 0.9874428218851449),
    (0.01646708585318404, 0.9876496856101118), (0.01620021143749107, 0.9878498414218814),
    (0.0159418526363637, 0.9880436105227269), (0.01569160810518404, 0.9882312939211119),
    (0.015449101340276186, 0.9884131739947929), (0.015213978785491912, 0.9885895159108808),
    (0.01498590810945396, 0.9887605689179098), (0.014764576635768911, 0.9889265675231733),
    (0.014549689910587492, 0.9890877325670595), (0.014340970393688006, 0.9892442722047341),
    (0.014138156260826927, 0.9893963828043797), (0.013941000306471689, 0.9895442497701463),
    (0.013749268937231168, 0.9896880482970766), (0.013562741247353459, 0.9898279440644847),
    (0.013381208168586357, 0.9899640938735601), (0.01320447168751234, 0.9900966462343654),
    (0.013032344124189686, 0.9902257419068575), (0.012864647466567574, 0.9903515144000745),
    (0.012701212755706631, 0.9904740904332201), (0.01254187951733605, 0.990593590361998),
    (0.012386495235722076, 0.9907101285732086), (0.012234914866217556, 0.9908238138503369),
    (0.012087000383214036, 0.9909347497125894), (0.011942620360531784, 0.9910430347296011),
    (0.011801649581563448, 0.9911487628138275), (0.011663968676738119, 0.9912520234924466),
    (0.011529463786097413, 0.9913529021604269), (0.011398026244976885, 0.9914514803162675),
    (0.011269552290967265, 0.9915478357817747), (0.011143942790493258, 0.9916420429071304),
    (0.011021102983494105, 0.9917341727623797), (0.010900942244822888, 0.991824293316383),
    (0.010783373861100757, 0.9919124696041742), (0.010668314821870426, 0.9919987638835971),
    (0.010555685623991057, 0.9920832357820069), (0.010445410088305072, 0.9921659424337714),
    (0.010337415187687785, 0.9922469386092339), (0.010231630885663694, 0.9923262768357524),
    (0.010127989984839264, 0.9924040075113706), (0.010026427984462625, 0.9924801790116531),
)


def _xi_series(M: int) -> float:
    """xi_M for M >= _SERIES_FROM: 16 Horner steps in x = 1/(M + 2), in Python floats.

    With S = M - 2k a sum of M signs and N = M + 2, xi_M - N 2^(1-M) / 3 (under
    1e-26 of xi_M) is (2/3) E[(S^4 - S^2) r(S^2/N^2)] / N^3, r(u) = 1/((1 - u)(1 + sqrt(1 - u))):
    expanding r and collecting the moments of S in x = 1/N gives x + (5/4) x^2 + ....
    """
    x, xi = 1.0 / (M + 2.0), 0.0
    for c in reversed(_XI_SERIES):
        xi = (xi + c) * x
    return xi


def _series(Ms: Sequence[int]) -> tuple[list[float], list[float]]:
    """xi_M and f_e(M) for each port count of Ms, as two fresh lists of floats.

    Every port count is checked, in order and before any is computed, to be an
    integer in [2, _MAX_PORTS] (10**10), and is used as the Python int it
    checked. Those below _SERIES_FROM are read from _EXACT; the others take
    _xi_series and f_e = 1 - 3 xi_M / 4. No numpy call is made.
    """
    ports = [_check_int(M, "port count", 2, _MAX_PORTS) for M in Ms]
    xis, fes = [], []
    for M in ports:
        if M < _SERIES_FROM:
            x, fe = _EXACT[M - 2]
        else:
            x = _xi_series(M)
            fe = 1.0 - 0.75 * x
        xis.append(x)
        fes.append(fe)
    return xis, fes


def xi(M: int) -> float:
    """Depolarizing probability of the M-port qubit protocol.

    xi_M = (M+2) 2^{1-M} / 3 + sum_s s(s+1)/3 C(M, k) 2^{4-M} ((M+2) - sqrt(g)) / g
    with the spin s running in unit steps from 1/2 (even M) or 0 (odd M) to
    (M-1)/2, k = (M-1)/2 - s and g = (M+2)^2 - (2s+1)^2. The last factor is
    evaluated as (2s+1)^2 / (g ((M+2) + sqrt(g))), which has no cancellation.

    Below 100 ports the sum as it stands is read from a literal table, within
    4.5 ulp of a 40-digit mpmath sum; the tests re-derive every entry bit for
    bit. From 100 on, a 16-term moment series in 1/(M + 2) takes O(1) and is
    within 1.4 ulp of a 40-digit mpmath sum (M <= 1e6) or of the exact series
    (up to the limit M = 10**10). Relative error is at most 1e-14 for every M;
    a member of any grid equals xi(M) bit for bit.
    """
    return _series((M,))[0][0]


def entanglement_fidelity_qubit(M: int) -> float:
    """Entanglement fidelity of the M-port qubit protocol.

    f_e = 2^{-M-3} sum_k C(M, k) ((M-2k-1)/sqrt(k+1) + (M-2k+1)/sqrt(M-k+1))^2,
    read below 100 ports from the same literal table of exact sums as xi, and
    1 - 3 xi_M / 4 from 100 on. Relative error is at most 1e-14 against a
    50-digit mpmath sum (M <= 6401) and against 1 - 3 xi_M / 4 of the exact
    series up to M = 10**10; grid members equal scalar calls, as for xi.
    """
    return _series((M,))[1][0]


def delta_upper(M: int, d: int) -> float:
    """Dimension-general upper bound 2d(d-1)/M on the simulation error."""
    M = _check_int(M, "port count", 2)
    d = _check_int(d, "dimension", 2)
    return 2.0 * d * (d - 1) / M


def simulation_error(M: int, d: int) -> tuple[float, str]:
    """Diamond-norm simulation error delta_M of the M-port protocol and its provenance.

    'closed_form' is the exact qubit value (3/2) xi_M; for d > 2 the only
    handle is 'upper_bound', the 2d(d-1)/M bound capped at 2, which no
    diamond distance exceeds: a one-member read of the grid lookup _simulation_errors.
    """
    deltas, provenance = _simulation_errors((M,), d)
    return deltas[0], provenance


def _simulation_errors(Ms: Sequence[int], d: int) -> tuple[list[float], str]:
    """simulation_error over a grid of port counts: a list of delta_M, one provenance.

    The dimension, then every port count, is checked before any delta is formed;
    for d > 2 xi_M is not computed. No numpy call is made.
    """
    d = _check_int(d, "dimension", 2)
    if d == 2:
        return [_DELTA_PER_XI * x for x in _series(Ms)[0]], "closed_form"
    Ms = [_check_int(M, "port count", 2) for M in Ms]
    bound = 2.0 * d * (d - 1)
    return [min(bound / M, 2.0) for M in Ms], "upper_bound"


def _depolarizing_choi_matrix(x: float) -> Array:
    """(1 - x) Phi + x I/4: the Choi matrix of qubit depolarizing with probability x."""
    mat = np.diag([0.5 - x / 4, x / 4, x / 4, 0.5 - x / 4]).astype(complex)
    mat[0, 3] = mat[3, 0] = 0.5 - x / 2
    return mat


def pbt_choi_qubit(M: int) -> ChoiMatrix:
    """Choi matrix of the M-port qubit channel (isotropic form in xi_M)."""
    return _trusted(ChoiMatrix, _trusted(DensityMatrix, _depolarizing_choi_matrix(xi(M)), (2, 2)))


def simulate_channel_choi(ch: KrausChannel, M: int) -> ChoiMatrix:
    """Choi matrix of the M-port simulation of a qubit channel.

    The simulation composes the channel after the PBT map, which is qubit
    depolarizing with probability xi_M, so its Choi state is linear in the
    channel's own J: (1 - xi_M) J + xi_M (I/2 (x) Tr_ref J), since Tr_ref J
    is the channel's output on I/2.
    """
    if ch.d_in != 2:
        raise ValueError(f"simulation handles qubit input channels only, got d_in={ch.d_in}")
    if ch.kraus_ops[0].ndim != 2:
        raise ValueError("simulation takes one channel, not a stack")
    x = xi(M)
    J = choi(ch)
    out_mixed = _partial_trace_2(J.matrix, J.state.dims, 1)
    mixed = (np.eye(2)[:, None, :, None] / 2 * out_mixed[None, :, None, :]).reshape(J.matrix.shape)
    sim = (1.0 - x) * J.matrix + x * mixed
    return _trusted(ChoiMatrix, _trusted(DensityMatrix, sim, J.state.dims))


def diamond_via_choi_scalar_check(choi_a: ChoiMatrix, choi_b: ChoiMatrix) -> float | None:
    """Diamond distance of two channels from their Choi matrices, when exact.

    For J the Choi difference, the trace norm ||J||_1 lower-bounds the diamond
    distance and equals it when the reference marginal of |J| is scalar.
    Returns None when the scalar criterion fails; no SDP fallback is provided.
    """
    if choi_a.state.dims != choi_b.state.dims:
        raise ValueError("Choi matrices must share dimensions")
    if choi_a.matrix.ndim != 2 or choi_b.matrix.ndim != 2:
        raise ValueError("diamond distance takes two Choi matrices, not stacks")
    J = choi_a.matrix - choi_b.matrix
    evals, vecs = np.linalg.eigh(J)
    absJ = (vecs * np.abs(evals)) @ vecs.conj().T
    marg = _partial_trace_2(absJ, choi_a.state.dims, 0)
    d_in = choi_a.d_in
    c = np.trace(marg).real / d_in
    if np.abs(marg - c * np.eye(d_in)).max() > TOL_NUM:
        return None
    return float(np.abs(evals).sum())


def _ad_factor(p: float) -> float:
    """delta_ad(M, p) / xi_M = (1 - p)/2 + sqrt(1 - p); p is already validated."""
    return (1.0 - p) / 2.0 + sqrt(1.0 - p)


def delta_ad(M: int, p: float) -> float:
    """Diamond-norm error of the M-port simulation of amplitude damping."""
    p = _check_interval(p, "damping probability", 0, 1)
    return xi(M) * _ad_factor(p)
