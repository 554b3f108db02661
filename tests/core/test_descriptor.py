"""The extensible relation descriptor: header, field N, encoding size."""

import pytest

from repro.core.descriptor import RelationDescriptor
from repro.errors import DescriptorError


def test_header_carries_storage_method_and_descriptor():
    descriptor = RelationDescriptor(2, {"pages": []})
    assert descriptor.storage_method_id == 2
    assert descriptor.storage_descriptor == {"pages": []}


def test_storage_method_zero_is_reserved():
    with pytest.raises(DescriptorError):
        RelationDescriptor(0, {})


def test_absent_attachment_fields_are_null():
    descriptor = RelationDescriptor(1, {})
    assert descriptor.attachment_field(1) is None
    assert descriptor.attachment_field(30) is None
    assert descriptor.attachment_count() == 0


def test_field_n_holds_attachment_type_n():
    descriptor = RelationDescriptor(1, {})
    descriptor.set_attachment_field(3, {"instances": {"i": {}}})
    assert descriptor.attachment_field(3) == {"instances": {"i": {}}}
    assert descriptor.attachment_field(2) is None
    assert descriptor.attachment_count() == 1


def test_present_attachments_in_type_id_order():
    descriptor = RelationDescriptor(1, {})
    descriptor.set_attachment_field(5, {"instances": {}})
    descriptor.set_attachment_field(2, {"instances": {}})
    assert [type_id for type_id, __ in descriptor.present_attachments()] \
        == [2, 5]


def test_setting_field_back_to_null():
    descriptor = RelationDescriptor(1, {})
    descriptor.set_attachment_field(2, {"instances": {}})
    descriptor.set_attachment_field(2, None)
    assert descriptor.attachment_field(2) is None
    assert descriptor.attachment_count() == 0


def test_version_bumps_on_structural_change():
    descriptor = RelationDescriptor(1, {})
    v0 = descriptor.version
    descriptor.set_attachment_field(1, {"instances": {}})
    assert descriptor.version == v0 + 1


def test_bad_type_ids_rejected():
    descriptor = RelationDescriptor(1, {})
    with pytest.raises(DescriptorError):
        descriptor.attachment_field(0)
    with pytest.raises(DescriptorError):
        descriptor.set_attachment_field(0, {})


def test_encode_decode_roundtrip():
    descriptor = RelationDescriptor(2, {"pages": [1, 2], "ntuples": 7})
    descriptor.set_attachment_field(4, {"instances": {"idx": {"k": 1}}})
    clone = RelationDescriptor.decode(descriptor.encode())
    assert clone.storage_method_id == 2
    assert clone.storage_descriptor == {"pages": [1, 2], "ntuples": 7}
    assert clone.attachment_field(4) == {"instances": {"idx": {"k": 1}}}
    assert clone.version == descriptor.version


def test_non_present_attachments_cost_a_few_bytes_each():
    """The paper: the record-oriented format limits attachment types to a
    few dozen before descriptor overhead grows — non-present fields must
    cost only a few bytes."""
    small = RelationDescriptor(1, {})
    wide = RelationDescriptor(1, {})
    wide.set_attachment_field(40, None)  # forces 40 NULL fields
    per_null_field = (len(wide.encode()) - len(small.encode())) / 40
    assert per_null_field <= 8
