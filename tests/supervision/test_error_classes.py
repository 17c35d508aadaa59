"""classify_error taxonomy, including the E15 replication verdicts."""

from repro.core.errors import InvocationError
from repro.transport.base import TransportError
from repro.replication.errors import ReplicaLagError, StateDivergedError
from repro.soap.faults import FaultCode, ReplicaLagFault, ServerBusyFault, SoapFault
from repro.supervision import BUSY, FAILOVER, FINAL, classify_error


class TestReplicationVerdicts:
    def test_replica_lag_fault_is_failover(self):
        """A lagging replica did not execute: the call should move to a
        more caught-up member, not die."""
        fault = ReplicaLagFault(behind_by=3, retry_after=0.25)
        assert classify_error(fault) == FAILOVER

    def test_replica_lag_error_is_failover(self):
        assert classify_error(ReplicaLagError("s", behind_by=2)) == FAILOVER

    def test_lag_fault_beats_generic_soap_fault_rule(self):
        """ReplicaLagFault *is* a SoapFault; the lag check must win over
        the faults-are-final default."""
        fault = ReplicaLagFault(behind_by=1, retry_after=0.1)
        assert isinstance(fault, SoapFault)
        assert classify_error(fault) == FAILOVER

    def test_state_diverged_is_final(self):
        """Divergence means no member is trustworthy — redirecting would
        silently pick a side of the conflict."""
        assert classify_error(StateDivergedError("cart-1")) == FINAL

    def test_lag_fault_survives_wire_round_trip(self):
        from repro.soap.envelope import SoapEnvelope
        from tests._oracle.reference_codec import parse_reference

        wire = SoapEnvelope.for_fault(
            ReplicaLagFault(behind_by=4, retry_after=0.5)
        ).to_wire()
        back = SoapEnvelope.from_element(parse_reference(wire)).fault()
        assert isinstance(back, ReplicaLagFault)
        assert back.behind_by == 4
        assert back.retry_after == 0.5
        assert classify_error(back) == FAILOVER


class TestExistingTaxonomyUnchanged:
    def test_busy_is_busy(self):
        assert classify_error(ServerBusyFault(retry_after=1.0)) == BUSY

    def test_plain_soap_fault_is_final(self):
        assert classify_error(SoapFault(FaultCode.SERVER, "boom")) == FINAL

    def test_transport_errors_fail_over(self):
        assert classify_error(TransportError("conn refused")) == FAILOVER
        assert classify_error(InvocationError("no response")) == FAILOVER

    def test_unclassified_exceptions_fall_back_to_failover(self):
        """Anything the taxonomy has never heard of is treated as an
        infrastructure problem: try elsewhere rather than give up."""
        assert classify_error(RuntimeError("cosmic ray")) == FAILOVER
        assert classify_error(ValueError("bad juju")) == FAILOVER
        assert classify_error(KeyError("missing")) == FAILOVER
