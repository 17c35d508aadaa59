"""Tests for the RPC dispatcher and the handler chain."""

import pytest

from repro.soap import (
    FaultCode,
    HandlerChain,
    MessageContext,
    MustUnderstandHandler,
    RpcDispatcher,
    ServiceObject,
    SoapEnvelope,
    SoapFault,
    StructRegistry,
)
from repro.soap.handlers import CallbackHandler, Direction, Handler
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.xmlkit import Element, QName

NS = "urn:test-service"


class Calculator:
    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a + b

    def divide(self, a, b):
        return a / b

    def concat(self, parts):
        return "".join(parts)

    def _private(self):
        return "hidden"


class Greeter:
    def __init__(self, greeting):
        self.greeting = greeting

    def greet(self, name):
        return f"{self.greeting}, {name}!"


def make_dispatcher(instance=None):
    service = ServiceObject.from_instance("Calc", instance or Calculator(), NS)
    return RpcDispatcher(service)


def call(dispatcher, op, **args):
    request = build_rpc_request(NS, op, args)
    # through the wire both ways
    request = SoapEnvelope.from_wire(request.to_wire())
    response = dispatcher.dispatch(request)
    response = SoapEnvelope.from_wire(response.to_wire())
    return extract_rpc_result(response)


class TestServiceObject:
    def test_from_instance_exposes_public_methods(self):
        svc = ServiceObject.from_instance("Calc", Calculator(), NS)
        assert svc.operation_names == ["add", "concat", "divide"]

    def test_private_methods_excluded(self):
        svc = ServiceObject.from_instance("Calc", Calculator(), NS)
        assert "_private" not in svc.operations

    def test_include_filter(self):
        svc = ServiceObject.from_instance("Calc", Calculator(), NS, include=["add"])
        assert svc.operation_names == ["add"]

    def test_include_missing_method_rejected(self):
        with pytest.raises(ValueError):
            ServiceObject.from_instance("Calc", Calculator(), NS, include=["nope"])

    def test_operations_map_to_different_objects(self):
        # §III: "each operation given to the service can map to a
        # different stateful object in memory"
        svc = ServiceObject("Mixed", NS)
        svc.map_operation("add", Calculator())
        svc.map_operation("hello", Greeter("Hi"), "greet")
        dispatcher = RpcDispatcher(svc)
        assert call(dispatcher, "add", a=2, b=3) == 5
        assert call(dispatcher, "hello", name="Ann") == "Hi, Ann!"

    def test_service_exposes_live_state(self):
        greeter = Greeter("Hello")
        svc = ServiceObject.from_instance("G", greeter, NS, include=["greet"])
        dispatcher = RpcDispatcher(svc)
        assert call(dispatcher, "greet", name="Bo") == "Hello, Bo!"
        greeter.greeting = "Howdy"  # mutate the live object
        assert call(dispatcher, "greet", name="Bo") == "Howdy, Bo!"


class TestRpcDispatch:
    def test_simple_call(self):
        assert call(make_dispatcher(), "add", a=1, b=2) == 3

    def test_named_args_any_order(self):
        assert call(make_dispatcher(), "add", b=10, a=1) == 11

    def test_wrapped_operation_binds_by_name(self):
        # a (*args, **kwargs) wrapper hides the signature; arguments
        # still reach the wrapped method by name, not by order
        class Wrapped:
            def pick(self, first="", second="", third=""):
                return f"{first}|{second}|{third}"

        target = Wrapped()
        real = target.pick
        target.pick = lambda *args, **kwargs: real(*args, **kwargs)
        dispatcher = RpcDispatcher(ServiceObject.from_instance("W", target, NS, ["pick"]))
        assert call(dispatcher, "pick", third="c", first="a") == "a||c"

    def test_composite_args(self):
        assert call(make_dispatcher(), "concat", parts=["a", "b", "c"]) == "abc"

    def test_state_persists_across_calls(self):
        calc = Calculator()
        dispatcher = make_dispatcher(calc)
        call(dispatcher, "add", a=1, b=1)
        call(dispatcher, "add", a=2, b=2)
        assert calc.calls == 2

    def test_unknown_operation_faults_client(self):
        with pytest.raises(SoapFault) as exc_info:
            call(make_dispatcher(), "subtract", a=1, b=2)
        assert exc_info.value.code is FaultCode.CLIENT

    def test_service_exception_faults_server(self):
        with pytest.raises(SoapFault) as exc_info:
            call(make_dispatcher(), "divide", a=1, b=0)
        assert exc_info.value.code is FaultCode.SERVER
        assert "ZeroDivisionError" in exc_info.value.message

    def test_missing_argument_faults_client(self):
        with pytest.raises(SoapFault) as exc_info:
            call(make_dispatcher(), "add", a=1)
        assert exc_info.value.code is FaultCode.CLIENT

    def test_empty_body_faults(self):
        dispatcher = make_dispatcher()
        with pytest.raises(SoapFault):
            dispatcher.dispatch(SoapEnvelope())

    def test_service_raised_fault_passes_through(self):
        class Picky:
            def check(self, v):
                raise SoapFault(FaultCode.CLIENT, "custom refusal")

        svc = ServiceObject.from_instance("P", Picky(), NS)
        with pytest.raises(SoapFault) as exc_info:
            call(RpcDispatcher(svc), "check", v=1)
        assert exc_info.value.message == "custom refusal"

    def test_registry_shared_types(self):
        from dataclasses import dataclass

        @dataclass
        class Pair:
            a: int
            b: int

        reg = StructRegistry()
        reg.register(Pair)

        class Svc:
            def total(self, pair):
                return pair.a + pair.b

        service = ServiceObject.from_instance("S", Svc(), NS)
        dispatcher = RpcDispatcher(service, reg)
        request = build_rpc_request(NS, "total", {"pair": Pair(3, 4)}, reg)
        request = SoapEnvelope.from_wire(request.to_wire())
        response = dispatcher.dispatch(request)
        assert extract_rpc_result(response, reg) == 7

    def test_response_element_name(self):
        dispatcher = make_dispatcher()
        response = dispatcher.dispatch(build_rpc_request(NS, "add", {"a": 1, "b": 2}))
        assert response.body_content.name == QName(NS, "addResponse")


class TestHandlerChain:
    def run_chain(self, chain, request=None):
        request = request or build_rpc_request(NS, "noop", {})
        context = MessageContext(request, "Svc", "noop")
        dispatcher_result = SoapEnvelope(
            body_content=Element(QName(NS, "noopResponse", "tns"))
        )
        return chain.run(context, lambda ctx: dispatcher_result), context

    def test_handlers_run_in_order_then_reverse(self):
        order = []

        class Rec(Handler):
            def __init__(self, tag):
                self.tag = tag

            def invoke(self, ctx):
                order.append((self.tag, ctx.direction))

        chain = HandlerChain([Rec("a"), Rec("b")])
        self.run_chain(chain)
        assert order == [
            ("a", Direction.REQUEST),
            ("b", Direction.REQUEST),
            ("b", Direction.RESPONSE),
            ("a", Direction.RESPONSE),
        ]

    def test_handler_fault_becomes_fault_envelope(self):
        class Refuse(Handler):
            def invoke(self, ctx):
                if ctx.direction is Direction.REQUEST:
                    raise SoapFault(FaultCode.CLIENT, "refused")

        chain = HandlerChain([Refuse()])
        response, _ = self.run_chain(chain)
        assert response.is_fault
        assert response.fault().message == "refused"

    def test_unexpected_exception_becomes_server_fault(self):
        class Broken(Handler):
            def invoke(self, ctx):
                raise RuntimeError("oops")

        response, _ = self.run_chain(HandlerChain([Broken()]))
        assert response.fault().code is FaultCode.SERVER

    def test_on_fault_unwinds_in_reverse(self):
        unwound = []

        class Watcher(Handler):
            def __init__(self, tag):
                self.tag = tag

            def invoke(self, ctx):
                pass

            def on_fault(self, ctx, fault):
                unwound.append(self.tag)

        class Bomb(Handler):
            def invoke(self, ctx):
                if ctx.direction is Direction.REQUEST:
                    raise SoapFault(FaultCode.SERVER, "x")

        chain = HandlerChain([Watcher("w1"), Watcher("w2"), Bomb()])
        self.run_chain(chain)
        assert unwound == ["w2", "w1"]

    def test_service_fault_propagates(self):
        chain = HandlerChain([])
        context = MessageContext(build_rpc_request(NS, "x", {}))

        def failing_service(ctx):
            raise SoapFault(FaultCode.SERVER, "svc broke")

        response = chain.run(context, failing_service)
        assert response.fault().message == "svc broke"

    def test_callback_handler(self):
        seen = []
        chain = HandlerChain([CallbackHandler(lambda ctx: seen.append(ctx.direction))])
        self.run_chain(chain)
        assert seen == [Direction.REQUEST, Direction.RESPONSE]

    def test_prepend_and_remove(self):
        h1 = CallbackHandler(lambda c: None, "h1")
        h2 = CallbackHandler(lambda c: None, "h2")
        chain = HandlerChain([h1])
        chain.prepend(h2)
        assert chain.handlers == [h2, h1]
        chain.remove(h2)
        assert chain.handlers == [h1]


class TestMustUnderstand:
    def build_request(self, mu=True, uri="urn:ext"):
        request = build_rpc_request(NS, "noop", {})
        header = Element(QName(uri, "Thing", "x"))
        request.add_header(header, must_understand=mu)
        return request

    def test_not_understood_faults(self):
        chain = HandlerChain([MustUnderstandHandler()])
        context = MessageContext(self.build_request())
        response = chain.run(context, lambda ctx: SoapEnvelope())
        assert response.fault().code is FaultCode.MUST_UNDERSTAND

    def test_understood_namespace_passes(self):
        handler = MustUnderstandHandler({"urn:ext"})
        chain = HandlerChain([handler])
        response = chain.run(
            MessageContext(self.build_request()), lambda ctx: SoapEnvelope()
        )
        assert not response.is_fault

    def test_add_understood(self):
        handler = MustUnderstandHandler()
        handler.add_understood("urn:ext")
        chain = HandlerChain([handler])
        response = chain.run(
            MessageContext(self.build_request()), lambda ctx: SoapEnvelope()
        )
        assert not response.is_fault

    def test_non_mu_header_ignored(self):
        chain = HandlerChain([MustUnderstandHandler()])
        response = chain.run(
            MessageContext(self.build_request(mu=False)), lambda ctx: SoapEnvelope()
        )
        assert not response.is_fault
