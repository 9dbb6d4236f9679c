module Pool = Pool
module Packed_type = Packed_type
module Journal = Journal
module Lease = Lease
module Runner = Runner
module Spool = Spool
include Engine
