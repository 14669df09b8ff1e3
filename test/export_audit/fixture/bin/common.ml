module Cfg = Audit_fixture.Config
