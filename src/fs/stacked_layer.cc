#include "src/fs/stacked_layer.h"

#include "src/fs/prefix_context.h"

namespace springfs {

Status StackedLayer::CheckStacked() const {
  if (!under_) {
    return ErrInvalidArgument(type_name() + " not stacked");
  }
  return Status::Ok();
}

bool StackedLayer::IsShadowName(std::string_view component) const {
  std::string_view suffix = shadow_suffix();
  return !suffix.empty() && component.size() > suffix.size() &&
         component.ends_with(suffix);
}

Name StackedLayer::ShadowNameFor(const Name& name) const {
  return name.Parent().Join(
      Name::Single(name.back() + std::string(shadow_suffix())));
}

// --- Context -----------------------------------------------------------------

Result<sp<Object>> StackedLayer::Resolve(const Name& name,
                                         const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Object>> {
    RETURN_IF_ERROR(CheckStacked());
    if (name.empty()) {
      return shared_from_this();
    }
    if (NamesShadow(name)) {
      return ErrNotFound("shadow files are not exported");
    }
    ASSIGN_OR_RETURN(sp<Object> object, under_->Resolve(name, creds));
    if (sp<File> file = narrow<File>(object)) {
      ASSIGN_OR_RETURN(sp<File> wrapped, WrapFile(name, file));
      return sp<Object>(std::move(wrapped));
    }
    if (narrow<Context>(object)) {
      return sp<Object>(MakePrefixContext(Self(), name));
    }
    return object;
  });
}

Status StackedLayer::Bind(const Name& name, sp<Object> object,
                          const Credentials& creds, bool replace) {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(CheckStacked());
    if (NamesShadow(name)) {
      return ErrInvalidArgument("shadow file names are reserved");
    }
    ASSIGN_OR_RETURN(sp<Object> below, UnwrapForBind(std::move(object)));
    return under_->Bind(name, std::move(below), creds, replace);
  });
}

Status StackedLayer::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(CheckStacked());
    if (NamesShadow(name)) {
      return ErrNotFound("shadow files are not exported");
    }
    // What the name reaches below, so the layer can drop its state for it
    // once the removal succeeded.
    Result<sp<Object>> below = under_->Resolve(name, creds);
    RETURN_IF_ERROR(under_->Unbind(name, creds));
    Unbound(name, below.ok() ? *below : nullptr);
    if (!shadow_suffix().empty() && !name.empty()) {
      Status st = under_->Unbind(ShadowNameFor(name), creds);
      if (!st.ok() && st.code() != ErrorCode::kNotFound) {
        return st;
      }
    }
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> StackedLayer::ListAt(
    const Name& prefix, const Credentials& creds) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    RETURN_IF_ERROR(CheckStacked());
    ASSIGN_OR_RETURN(std::vector<BindingInfo> entries,
                     ListBelow(*under_, prefix, creds));
    std::erase_if(entries, [&](const BindingInfo& entry) {
      return IsShadowName(entry.name);
    });
    return entries;
  });
}

Result<std::vector<BindingInfo>> StackedLayer::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<sp<Context>> StackedLayer::CreateContext(const Name& name,
                                                const Credentials& creds) {
  return InDomain([&]() -> Result<sp<Context>> {
    RETURN_IF_ERROR(CheckStacked());
    if (NamesShadow(name)) {
      return ErrInvalidArgument("shadow file names are reserved");
    }
    RETURN_IF_ERROR(under_->CreateContext(name, creds).status());
    return MakePrefixContext(Self(), name);
  });
}

// --- StackableFs -------------------------------------------------------------

Status StackedLayer::StackOn(sp<StackableFs> underlying) {
  return InDomain([&]() -> Status {
    if (under_) {
      return ErrAlreadyExists(type_name() + " already stacked");
    }
    if (!underlying) {
      return ErrInvalidArgument("null underlying file system");
    }
    under_ = std::move(underlying);
    return Status::Ok();
  });
}

Result<sp<File>> StackedLayer::CreateFile(const Name& name,
                                          const Credentials& creds) {
  return InDomain([&]() -> Result<sp<File>> {
    RETURN_IF_ERROR(CheckStacked());
    if (name.empty() || NamesShadow(name)) {
      return ErrInvalidArgument("invalid " + type_name() + " file name");
    }
    ASSIGN_OR_RETURN(sp<File> under_file, under_->CreateFile(name, creds));
    return WrapFile(name, under_file);
  });
}

// --- Fs ----------------------------------------------------------------------

Result<FsInfo> StackedLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    RETURN_IF_ERROR(CheckStacked());
    ASSIGN_OR_RETURN(FsInfo info, under_->GetFsInfo());
    info.type = type_name() + "(" + info.type + ")";
    info.stack_depth += 1;
    return info;
  });
}

Status StackedLayer::SyncFs() {
  return InDomain([&]() -> Status {
    RETURN_IF_ERROR(CheckStacked());
    RETURN_IF_ERROR(SyncOwn());
    return under_->SyncFs();
  });
}

}  // namespace springfs
